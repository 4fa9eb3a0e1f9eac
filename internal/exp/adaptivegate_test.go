package exp

import (
	"os"
	"runtime"
	"testing"
	"time"

	"suu/internal/core"
	"suu/internal/sched"
	"suu/internal/sim"
	"suu/internal/workload"
)

// TestCompiledAdaptiveSpeedupSmoke is the CI bench-smoke assertion for
// the compiled adaptive engine: estimating the MSM greedy on the
// adaptive_engine reference instance through the memoized transition
// table must beat the generic step engine by ≥3× (best of three
// timed runs each, compile cost included). It only runs when
// BENCH_SMOKE=1 — wall-clock ratios are meaningless under the race
// detector or a loaded laptop — and skips on single-core runners,
// whose scheduling noise swamps millisecond estimates. The engines
// are bit-identical (pinned by the sim parity tests), so this gate is
// purely about throughput.
func TestCompiledAdaptiveSpeedupSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 to run the compiled-adaptive speedup gate")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("speedup gate needs ≥2 cores for stable timing")
	}
	seed := sim.SeedFor(1, "bench-adaptive")
	in := workload.Independent(workload.Config{Jobs: 12, Machines: 4, Seed: seed})
	pol := &core.AdaptivePolicy{In: in}
	generic := sched.PolicyFunc(pol.Assign) // strips the Memoizable marker

	const reps = 3000
	var states int
	bestOf3 := func(p sched.Policy, wantEngine string) float64 {
		best := -1.0
		for try := 0; try < 3; try++ {
			start := time.Now()
			_, _, eng := sim.EstimateInfo(in, p, reps, 5_000_000, 77)
			if eng.Engine != wantEngine {
				t.Fatalf("estimation ran on %q, want %q", eng.Engine, wantEngine)
			}
			states = max(states, eng.States)
			if e := time.Since(start).Seconds() * 1000; best < 0 || e < best {
				best = e
			}
		}
		return best
	}
	compiled := bestOf3(pol, sim.EngineCompiledAdaptive)
	slow := bestOf3(generic, sim.EngineGeneric)
	ratio := slow / compiled
	t.Logf("adaptive 12x4 estimation (%d reps, %d states): compiled %.2fms generic %.2fms ratio %.2fx",
		reps, states, compiled, slow, ratio)
	if ratio < 3 {
		t.Errorf("compiled-adaptive estimation only %.2fx faster than the generic step engine (want ≥3x): compiled %.2fms generic %.2fms",
			ratio, compiled, slow)
	}
}
