package exp

import (
	"math"
	"os"
	"runtime"
	"slices"
	"testing"
	"time"

	"suu/internal/opt"
	"suu/internal/sim"
	"suu/internal/workload"
)

// TestExactSolverSpeedupSmoke is the CI bench-smoke assertion for the
// exact solver: the layered value iteration must solve independent
// 12×4 (4096 closed states, far beyond the old DP's comfort zone) at
// least 10× faster than the exhaustive Malewicz-style DP on the same
// instance, agreeing on the optimum, and must clear the n=20 chains
// frontier (m=4) in under five seconds. Its worker pool must also
// scale: 2 workers solve independent 10×3 (the serving workload's
// exact-solve shape) at least 1.2× faster than 1 worker. It only runs
// when BENCH_SMOKE=1 — wall-clock ratios are meaningless under the
// race detector or a loaded laptop — and skips on single-core runners.
// Value parity across worker counts is pinned separately by the opt
// package's tests; this gate is about throughput and reach.
func TestExactSolverSpeedupSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 to run the exact-solver speedup gate")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("speedup gate needs ≥2 cores for stable timing")
	}

	seed := sim.SeedFor(1, "bench-exact")
	ind := workload.Independent(workload.Config{Jobs: 12, Machines: 4, Seed: seed})
	viMS, viVal := -1.0, 0.0
	var st *opt.Stats
	for try := 0; try < 3; try++ {
		start := time.Now()
		_, v, s, err := opt.OptimalRegimenParallel(ind, 0)
		if err != nil {
			t.Fatalf("independent-12x4 value iteration: %v", err)
		}
		if ms := time.Since(start).Seconds() * 1000; viMS < 0 || ms < viMS {
			viMS, viVal, st = ms, v, s
		}
	}
	start := time.Now()
	_, oracleVal, err := opt.OptimalRegimenExhaustive(ind)
	if err != nil {
		t.Fatalf("independent-12x4 exhaustive DP: %v", err)
	}
	oracleMS := time.Since(start).Seconds() * 1000
	if math.Abs(viVal-oracleVal) > 1e-9 {
		t.Fatalf("independent-12x4: value iteration %v disagrees with the exhaustive DP %v", viVal, oracleVal)
	}
	ratio := oracleMS / viMS
	t.Logf("exact 12x4 value iteration (%d states, %d transitions): vi %.0fms oracle %.0fms ratio %.1fx",
		st.States, st.Transitions, viMS, oracleMS, ratio)
	if ratio < 10 {
		t.Errorf("value iteration on independent-12x4 only %.1fx faster than the exhaustive DP (want ≥10x): vi %.0fms oracle %.0fms",
			ratio, viMS, oracleMS)
	}

	// Worker scaling: interleave 1- and 2-worker solves, so host drift
	// hits both sides alike, and compare the medians.
	if runtime.GOMAXPROCS(0) >= 2 {
		small := workload.Independent(workload.Config{Jobs: 10, Machines: 3, Seed: seed})
		const rounds = 21
		var ms [2][]float64 // ms[w-1] holds the solve times at w workers
		for round := 0; round < rounds; round++ {
			for w := 1; w <= 2; w++ {
				start := time.Now()
				if _, _, _, err := opt.OptimalRegimenParallel(small, w); err != nil {
					t.Fatalf("independent-10x3 value iteration at %d workers: %v", w, err)
				}
				ms[w-1] = append(ms[w-1], time.Since(start).Seconds()*1000)
			}
		}
		slices.Sort(ms[0])
		slices.Sort(ms[1])
		oneMS, twoMS := ms[0][rounds/2], ms[1][rounds/2]
		scale := oneMS / twoMS
		t.Logf("exact 10x3 worker scaling (median of %d): 1 worker %.2fms 2 workers %.2fms ratio %.2fx",
			rounds, oneMS, twoMS, scale)
		if scale < 1.2 {
			t.Errorf("value iteration on independent-10x3 at 2 workers only %.2fx faster than 1 worker (want ≥1.2x): 1 worker %.2fms 2 workers %.2fms",
				scale, oneMS, twoMS)
		}
	}

	ch := workload.Chains(workload.Config{Jobs: 20, Machines: 4, Seed: seed}, 5)
	start = time.Now()
	_, _, cst, err := opt.OptimalRegimenParallel(ch, 0)
	if err != nil {
		t.Fatalf("chains-20x4 value iteration: %v", err)
	}
	chMS := time.Since(start).Seconds() * 1000
	t.Logf("exact chains-20x4 frontier: %d states (%d layers) in %.0fms", cst.States, cst.Layers, chMS)
	if chMS > 5000 {
		t.Errorf("chains-20x4 value iteration took %.0fms (want <5000ms)", chMS)
	}
}
