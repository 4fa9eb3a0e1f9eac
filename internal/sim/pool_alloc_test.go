//go:build !race

// The race detector makes sync.Pool drop a share of what is put back,
// so a pooled estimate's allocation count means nothing under -race.

package sim

import (
	"runtime"
	"runtime/debug"
	"slices"
	"testing"

	"suu/internal/workload"
)

// TestWarmOneShotLaneEstimateAllocation pins what a warm one-shot lane
// estimate allocates once the pools hold its lane workers and window:
// independent 64x16 at 2048 repetitions on 2 workers allocates under 1%
// of the SizeBytes charge of the engine Prepare builds for it. Every
// call compiles fresh run tables: the call allocates about 15.6 KB
// (0.72% of the 2.16 MB charge), nearly all of it Prepare's 14.8 KB.
// Two lane workers' fresh buffers would add over 32 KB, so the pin
// holds that the pooled buffers are reused and that no per-occurrence
// table returns. It reads the median call: a pool cannot hand a
// goroutine what another processor holds in its private slot, so a
// call whose goroutine moved since the last one sometimes allocates
// fresh lane buffers.
func TestWarmOneShotLaneEstimateAllocation(t *testing.T) {
	in := workload.Independent(workload.Config{Jobs: 64, Machines: 16, Seed: 3})
	o := autoOblivious(t, in)
	size := Prepare(in, o).SizeBytes()
	const reps, calls = 2048, 15
	if _, _, eng := EstimateParallelInfo(in, o, reps, 1<<20, 1, 2); eng.Engine != EngineLane || eng.Workers != 2 {
		t.Fatalf("engine %+v, want %s on 2 workers", eng, EngineLane)
	}
	// A collection would empty the pools mid-measurement.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	perCall := make([]int64, calls)
	var before, after runtime.MemStats
	for i := range perCall {
		runtime.ReadMemStats(&before)
		EstimateParallelInfo(in, o, reps, 1<<20, int64(i), 2)
		runtime.ReadMemStats(&after)
		perCall[i] = int64(after.TotalAlloc - before.TotalAlloc)
	}
	slices.Sort(perCall)
	median := perCall[calls/2]
	t.Logf("warm one-shot lane estimate: median %d B per call (max %d B), engine %d B", median, perCall[calls-1], size)
	if median*100 >= size {
		t.Errorf("a warm one-shot lane estimate allocates %d B in the median call, want < SizeBytes/100 = %d B", median, size/100)
	}
}
