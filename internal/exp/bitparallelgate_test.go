package exp

import (
	"os"
	"runtime"
	"testing"
	"time"

	"suu/internal/core"
	"suu/internal/sim"
	"suu/internal/workload"
)

// TestBitParallelSpeedupSmoke is the CI bench-smoke assertion for the
// 64-lane bit-parallel engine: estimating the SUUChains schedules on
// the T12 chains families must beat the scalar compiled engine by ≥5×
// (best of three timed runs each, the scalar run pinned per call with
// sim.EstimateInfoLanes, identical reps and seeds). It only runs when
// BENCH_SMOKE=1 — wall-clock ratios are meaningless under the race
// detector or a loaded laptop — and skips on single-core runners,
// whose scheduling noise swamps millisecond estimates. Lane-vs-scalar
// result parity is pinned separately by the sim package's lane tests;
// this gate is purely about throughput.
func TestBitParallelSpeedupSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 to run the bit-parallel speedup gate")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("speedup gate needs ≥2 cores for stable timing")
	}
	families := []struct {
		name           string
		jobs, machines int
		chains         int
	}{
		{"chains-48x8", 48, 8, 6},
		{"chains-96x12", 96, 12, 8},
	}
	const reps = 20_000
	for _, f := range families {
		seed := sim.SeedFor(1, "bench-bitparallel/"+f.name)
		in := workload.Chains(workload.Config{Jobs: f.jobs, Machines: f.machines, Seed: seed}, f.chains)
		built, err := core.SUUChains(in, paramsWithSeed(seed))
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		pol := built.Schedule

		bestOf3 := func(lanes bool, wantEngine string, wantLanes int) float64 {
			best := -1.0
			for try := 0; try < 3; try++ {
				start := time.Now()
				_, _, eng := sim.EstimateInfoLanes(in, pol, reps, 5_000_000, 77, lanes)
				if eng.Engine != wantEngine || eng.Lanes != wantLanes {
					t.Fatalf("%s: estimation ran on %q (%d lanes), want %q (%d lanes)",
						f.name, eng.Engine, eng.Lanes, wantEngine, wantLanes)
				}
				if e := time.Since(start).Seconds() * 1000; best < 0 || e < best {
					best = e
				}
			}
			return best
		}
		lane := bestOf3(true, sim.EngineLane, sim.LaneWidth)
		scalar := bestOf3(false, sim.EngineCompiled, 0)
		ratio := scalar / lane
		t.Logf("bitparallel %s estimation (%d reps): lane %.2fms scalar %.2fms ratio %.2fx",
			f.name, reps, lane, scalar, ratio)
		if ratio < 5 {
			t.Errorf("bit-parallel estimation on %s only %.2fx faster than the scalar compiled engine (want ≥5x): lane %.2fms scalar %.2fms",
				f.name, ratio, lane, scalar)
		}
	}
}
