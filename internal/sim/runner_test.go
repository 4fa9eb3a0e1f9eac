package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"suu/internal/core"
	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/stats"
	"suu/internal/workload"
)

// refFold is the sequential reference RunChunks must reproduce: the
// values in repetition order, each estimateChunk-repetition chunk
// summed into its own accumulator, the chunk accumulators merged in
// chunk order.
func refFold(values []float64) stats.Summary {
	var total stats.Accumulator
	for lo := 0; lo < len(values); lo += estimateChunk {
		var acc stats.Accumulator
		for _, x := range values[lo:min(lo+estimateChunk, len(values))] {
			acc.Add(x)
		}
		total.Merge(acc)
	}
	return total.Summary()
}

// sameBits reports whether two summaries agree to the last bit.
func sameBits(a, b stats.Summary) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.N == b.N && eq(a.Mean, b.Mean) && eq(a.StdDev, b.StdDev) && eq(a.Min, b.Min) && eq(a.Max, b.Max)
}

// TestRunChunksMatchesSequentialFold pins the runner to refFold at
// every (reps, workers, unit): repetition r's value depends on r
// alone, its cost varies with r and some units yield the processor, so
// units finish out of repetition order, yet the summary, the
// incomplete count and the effective worker count must not move.
func TestRunChunksMatchesSequentialFold(t *testing.T) {
	value := func(r int) float64 { return math.Sqrt(float64(r%97)+0.5) * float64(1+r%13) }
	for _, reps := range []int{1, 7, 8, 9, 63, 64, 65, 255, 256, 257, 511, 4095, 4096, 4097, 9000} {
		values := make([]float64, reps)
		wantInc := 0
		for r := range values {
			values[r] = value(r)
			if r%5 == 2 {
				wantInc++
			}
		}
		want := refFold(values)
		for _, unit := range []int{1, 8, 64} {
			for _, workers := range []int{1, 2, 3, 7} {
				var built atomic.Int64
				sum, inc, used := RunChunks(reps, workers, unit, func() ChunkFunc {
					built.Add(1)
					return func(lo, hi int, makespans []float64) (incomplete int) {
						if (lo/unit)%3 == 1 {
							runtime.Gosched()
						}
						for r := lo; r < hi; r++ {
							x := uint64(r)
							for k := (r * 7919) % 61; k > 0; k-- {
								x ^= x << 13
								x ^= x >> 7
							}
							if x == 1 { // never: keeps the spin from being optimized away
								t.Error("spin hit its sentinel")
							}
							makespans[r-lo] = value(r)
							if r%5 == 2 {
								incomplete++
							}
						}
						return incomplete
					}
				})
				name := fmt.Sprintf("reps=%d unit=%d workers=%d", reps, unit, workers)
				if !sameBits(sum, want) {
					t.Errorf("%s: summary %+v, sequential fold %+v", name, sum, want)
				}
				if inc != wantInc {
					t.Errorf("%s: incomplete %d, want %d", name, inc, wantInc)
				}
				wantWorkers := min(workers, (reps+unit-1)/unit)
				if used != wantWorkers || built.Load() != int64(wantWorkers) {
					t.Errorf("%s: %d effective workers, %d engines built; want %d of each", name, used, built.Load(), wantWorkers)
				}
			}
		}
	}
}

// TestEstimateMatchesSequentialWalk pins every sim engine's fanned-out
// estimate to the same engine's repetitions walked in one sequential
// pass over [0, reps) and folded by refFold, at repetition counts
// below one chunk and above it. It also checks the fan-out itself:
// min(workers, ⌈reps/unit⌉).
func TestEstimateMatchesSequentialWalk(t *testing.T) {
	in, o := chainsFixture()
	adIn := workload.Independent(workload.Config{Jobs: 10, Machines: 3, Seed: 42})
	cases := []struct {
		engine string
		in     *model.Instance
		pol    sched.Policy
		reps   []int
	}{
		{EngineGeneric, in, sched.PolicyFunc(func(st *sched.State) sched.Assignment { return o.At(st.Step) }), []int{32, 300}},
		{EngineCompiled, in, o, []int{32, 255}},
		{EngineLane, in, o, []int{300, 4097}},
		{EngineCompiledAdaptive, adIn, &core.AdaptivePolicy{In: adIn}, []int{32, 300}},
	}
	const cap, seed = 100000, 29
	for _, c := range cases {
		for _, reps := range c.reps {
			e := newEstimator(c.in, c.pol, reps, lanesAuto)
			values := make([]float64, 0, reps)
			wantInc := 0
			e.newIter(seed, false).run(0, reps, cap, func(makespan int, completed bool, _ []float64) {
				values = append(values, float64(makespan))
				if !completed {
					wantInc++
				}
			})
			want := refFold(values)
			unit := scalarUnit
			if c.engine == EngineLane {
				unit = LaneWidth
			}
			for _, workers := range []int{1, 2, 5} {
				sum, inc, eng := EstimateParallelInfo(c.in, c.pol, reps, cap, seed, workers)
				name := fmt.Sprintf("%s reps=%d workers=%d", c.engine, reps, workers)
				if eng.Engine != c.engine {
					t.Fatalf("%s: ran %q", name, eng.Engine)
				}
				if !sameBits(sum, want) || inc != wantInc {
					t.Errorf("%s: %+v/%d, sequential walk %+v/%d", name, sum, inc, want, wantInc)
				}
				if w := min(workers, (reps+unit-1)/unit); eng.Workers != w {
					t.Errorf("%s: %d effective workers, want %d", name, eng.Workers, w)
				}
			}
		}
	}
}

// TestEstimateMemoryIsOneWindow bounds what a long estimate allocates:
// the runner holds one window of makespans (32 KiB) whatever reps is,
// so a 2^17-repetition call on a one-job instance stays far below the
// 1 MiB a full-length makespan buffer would take. The bound allows the
// window, 64 bytes per chunk and 64 KiB of engine set-up.
func TestEstimateMemoryIsOneWindow(t *testing.T) {
	in := model.New(1, 1)
	in.SetAt(0, 0, 0.9)
	pol := &sched.Oblivious{M: 1, Steps: []sched.Assignment{{0}}}
	const reps = 1 << 17
	Estimate(in, pol, reps, 1000, 3)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	Estimate(in, pol, reps, 1000, 3)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	bound := uint64(windowChunks*estimateChunk*8 + reps/estimateChunk*64 + 64<<10)
	t.Logf("%d-repetition estimate allocated %d bytes (bound %d)", reps, got, bound)
	if got > bound {
		t.Errorf("a %d-repetition estimate allocated %d bytes, want at most %d", reps, got, bound)
	}
}
