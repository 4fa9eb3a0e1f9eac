package exp

import (
	"fmt"
	"os"
	"runtime"
	"testing"

	"suu/internal/dyn"
	"suu/internal/sim"
	"suu/internal/solve"
)

// TestSmallRepFanOutSmoke is the CI bench-smoke assertion that an
// estimate of fewer repetitions than one 256-repetition chunk still
// uses the workers it is given: on the moderate-burst quick T15
// streaming cell, the deployed oblivious schedule's 60-repetition
// dynamic estimate must run at least 1.3× faster at 2 workers than at
// 1, as the median of 41 per-pair ratios from the package's sampler.
// The walk is register-bound, so a free second core nearly doubles
// it. The sampler's register-only control, timed in the same pairs at
// 1 and 2 goroutines, tells whether the host lent a second core at
// all: when the control scales below 1.5×, the gate skips and logs why
// rather than retrying. Like the other speedup gates it only runs when
// BENCH_SMOKE=1 and skips on single-core runners. Worker-count
// bit-identity is pinned by the sim and dyn tests; this gate is about
// throughput.
func TestSmallRepFanOutSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 to run the small-repetition fan-out gate")
	}
	if runtime.NumCPU() < 2 || runtime.GOMAXPROCS(0) < 2 {
		t.Skip("fan-out gate needs ≥2 cores")
	}
	cfg := Config{Quick: true, Seed: 1}
	p := t15StreamingPoint(cfg, 1) // the moderate burst
	in, seed, err := cellInstance(cfg, GridCell{Point: p})
	if err != nil {
		t.Fatal(err)
	}
	sc := t15Scenario(in, p.Arg)
	_, res, err := solve.Auto(in, paramsWithSeed(sim.SeedFor(seed, "build")))
	if err != nil {
		t.Fatal(err)
	}
	strat := dyn.NewStatic(sc, res.Policy)
	estimate := func(workers int) func() error {
		return func() error {
			_, _, eng, err := dyn.EstimateInfo(sc, strat, cfg.reps(), t15MaxSteps, sim.SeedFor(seed, "sim"), workers)
			if err != nil {
				return err
			}
			if eng.Workers != workers {
				return fmt.Errorf("the %d-repetition estimate ran %d workers, want %d", cfg.reps(), eng.Workers, workers)
			}
			return nil
		}
	}
	const rounds = 41
	tm, err := sample(rounds, true, estimate(2), estimate(1))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("small-rep fan-out %dx%d moderate-burst oblivious (%d reps, median of %d pairs): 2 workers %.2fx 1 worker, register-only control %.2fx",
		p.Jobs, p.Machines, cfg.reps(), rounds, tm.Ratio, tm.Control)
	if tm.Control < 1.5 {
		t.Skipf("the register-only control scaled only %.2fx at 2 goroutines: the host lent no second core, so the gate cannot judge the fan-out", tm.Control)
	}
	if tm.Ratio < 1.3 {
		t.Errorf("the %d-repetition estimate at 2 workers is only %.2fx faster than at 1 (want ≥1.3x; the control read %.2fx)",
			cfg.reps(), tm.Ratio, tm.Control)
	}
}
