package exp

import (
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"suu/internal/dyn"
	"suu/internal/sim"
	"suu/internal/solve"
)

// TestSmallRepFanOutSmoke is the CI bench-smoke assertion that an
// estimate of fewer repetitions than one 256-repetition chunk still
// uses the workers it is given: on the moderate-burst quick T15
// streaming cell, the deployed oblivious schedule's 60-repetition
// dynamic estimate must run at least 1.3× faster at 2 workers than at
// 1, as the median of 41 interleaved per-pair ratios. The walk is
// register-bound, so a free second core nearly doubles it. A
// register-only control loop, timed in the same rounds at 1 and 2
// goroutines, tells whether the host lent a second core at all: when
// the control scales below 1.5×, the gate skips and logs why rather
// than retrying. Like the other speedup gates it only runs when
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
	estimate := func(workers int) float64 {
		start := time.Now()
		if _, _, eng, err := dyn.EstimateInfo(sc, strat, cfg.reps(), t15MaxSteps, sim.SeedFor(seed, "sim"), workers); err != nil {
			t.Fatal(err)
		} else if eng.Workers != workers {
			t.Fatalf("the %d-repetition estimate ran %d workers, want %d", cfg.reps(), eng.Workers, workers)
		}
		return time.Since(start).Seconds()
	}
	// The control splits a fixed xorshift loop over 1 or 2 goroutines;
	// nothing it touches leaves the registers.
	const controlIters = 4_000_000
	var sink atomic.Uint64
	control := func(goroutines int) float64 {
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				x := uint64(88172645463325252)
				for i := 0; i < controlIters/goroutines; i++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
				sink.Add(x)
			}()
		}
		wg.Wait()
		return time.Since(start).Seconds()
	}
	estimate(2) // warm up before timing
	const rounds = 41
	var ratios, controls []float64
	for round := 0; round < rounds; round++ {
		ratios = append(ratios, estimate(1)/estimate(2))
		controls = append(controls, control(1)/control(2))
	}
	slices.Sort(ratios)
	slices.Sort(controls)
	ratio, ctl := ratios[rounds/2], controls[rounds/2]
	t.Logf("small-rep fan-out %dx%d moderate-burst oblivious (%d reps, median of %d pairs): 2 workers %.2fx 1 worker, register-only control %.2fx",
		p.Jobs, p.Machines, cfg.reps(), rounds, ratio, ctl)
	if ctl < 1.5 {
		t.Skipf("the register-only control scaled only %.2fx at 2 goroutines: the host lent no second core, so the gate cannot judge the fan-out", ctl)
	}
	if ratio < 1.3 {
		t.Errorf("the %d-repetition estimate at 2 workers is only %.2fx faster than at 1 (want ≥1.3x; the control read %.2fx)",
			cfg.reps(), ratio, ctl)
	}
}
