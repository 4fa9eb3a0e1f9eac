package exp

import (
	"os"
	"runtime"
	"testing"

	"suu/internal/opt"
	"suu/internal/sim"
	"suu/internal/workload"
)

// TestExactSolverSpeedupSmoke is the CI bench-smoke assertion for the
// exact solver: the layered value iteration must solve independent
// 12×4 (4096 closed states, far beyond the old DP's comfort zone) at
// least 10× faster than the exhaustive Malewicz-style DP on the same
// instance, agreeing on the optimum, and must clear the n=20 chains
// frontier (m=4) in under five seconds. Both run through
// exactSolverRow, the helper behind the record's exact_solver rows:
// the value iteration's median time against one run of the oracle.
// Its worker pool must also scale: 2 workers solve independent 10×3
// (the serving workload's exact-solve shape) at least 1.2× faster
// than 1 worker, as the median of 21 per-pair ratios. A register-only
// control timed in the same pairs tells whether the host lent a
// second core at all: when it scales below 1.5×, that check skips and
// logs why. It only runs when BENCH_SMOKE=1 — wall-clock ratios are
// meaningless under the race detector or a loaded laptop — and skips
// on single-core runners. Value parity across worker counts is pinned
// separately by the opt package's tests; this gate is about
// throughput and reach.
func TestExactSolverSpeedupSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 to run the exact-solver speedup gate")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("speedup gate needs ≥2 cores for stable timing")
	}

	seed := sim.SeedFor(1, "bench-exact")
	ind := workload.Independent(workload.Config{Jobs: 12, Machines: 4, Seed: seed})
	row := exactSolverRow("independent-12x4", ind, true)
	if row.Error != "" {
		t.Fatalf("independent-12x4: %s", row.Error)
	}
	t.Logf("exact 12x4 value iteration (%d states, %d transitions, median of %d): vi %.0fms oracle %.0fms ratio %.1fx",
		row.States, row.Transitions, timedPairs, row.BuildMS, row.OracleMS, row.SpeedupVsOracle)
	if row.SpeedupVsOracle < 10 {
		t.Errorf("value iteration on independent-12x4 only %.1fx faster than the exhaustive DP (want ≥10x): vi %.0fms oracle %.0fms",
			row.SpeedupVsOracle, row.BuildMS, row.OracleMS)
	}

	t.Run("workers-10x3", func(t *testing.T) {
		if runtime.GOMAXPROCS(0) < 2 {
			t.Skip("worker scaling needs GOMAXPROCS ≥ 2")
		}
		small := workload.Independent(workload.Config{Jobs: 10, Machines: 3, Seed: seed})
		solveAt := func(workers int) func() error {
			return func() error {
				_, _, _, err := opt.OptimalRegimenParallel(small, workers)
				return err
			}
		}
		const rounds = 21
		tm, err := sample(rounds, true, solveAt(2), solveAt(1))
		if err != nil {
			t.Fatalf("independent-10x3 value iteration: %v", err)
		}
		t.Logf("exact 10x3 worker scaling (median of %d pairs): 1 worker %v 2 workers %v ratio %.2fx, register-only control %.2fx",
			rounds, tm.B, tm.A, tm.Ratio, tm.Control)
		if tm.Control < 1.5 {
			t.Skipf("the register-only control scaled only %.2fx at 2 goroutines: the host lent no second core, so the check cannot judge the worker pool", tm.Control)
		}
		if tm.Ratio < 1.2 {
			t.Errorf("value iteration on independent-10x3 at 2 workers only %.2fx faster than 1 worker (want ≥1.2x; the control read %.2fx): 1 worker %.2fms 2 workers %.2fms",
				tm.Ratio, tm.Control, tm.B.Median, tm.A.Median)
		}
	})

	ch := workload.Chains(workload.Config{Jobs: 20, Machines: 4, Seed: seed}, 5)
	crow := exactSolverRow("chains-20x4", ch, false)
	if crow.Error != "" {
		t.Fatalf("chains-20x4: %s", crow.Error)
	}
	t.Logf("exact chains-20x4 frontier: %d states (%d layers) in %.0fms (median of %d)", crow.States, crow.Layers, crow.BuildMS, timedPairs)
	if crow.BuildMS > 5000 {
		t.Errorf("chains-20x4 value iteration took %.0fms (want <5000ms)", crow.BuildMS)
	}
}
