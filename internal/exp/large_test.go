package exp

import (
	"os"
	"runtime"
	"testing"
	"time"

	"suu/internal/core"
	"suu/internal/sim"
	"suu/internal/solve"
	"suu/internal/workload"
)

// TestLargeLPTractable is the acceptance gate for the sparse solver's
// large-instance claim: a 512-job (LP2) and a 256-job chains (LP1)
// solve each complete in under 2 seconds. Skipped under -short so
// ordinary edit-test loops stay fast; CI runs the full suite.
func TestLargeLPTractable(t *testing.T) {
	if testing.Short() {
		t.Skip("large-instance tractability gate skipped under -short")
	}
	t.Run("LP2-512x16", func(t *testing.T) {
		in := workload.Independent(workload.Config{Jobs: 512, Machines: 16, Seed: 11})
		jobs := make([]int, in.N)
		for j := range jobs {
			jobs[j] = j
		}
		start := time.Now()
		fs, err := core.SolveLP2(in, jobs, 0.5)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if elapsed > 2*time.Second {
			t.Errorf("LP2 at 512 jobs took %v (budget 2s, %d pivots)", elapsed, fs.Iterations)
		}
		t.Logf("LP2 512x16: %v, %d pivots, %d working rows, T*=%.3f", elapsed, fs.Iterations, fs.Rows, fs.T)
	})
	t.Run("LP1-256x8", func(t *testing.T) {
		in := workload.Chains(workload.Config{Jobs: 256, Machines: 8, Seed: 11}, 16)
		chains, err := in.Prec.Chains()
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		fs, err := core.SolveLP1(in, chains, 0.5)
		elapsed := time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if elapsed > 2*time.Second {
			t.Errorf("LP1 at 256 jobs took %v (budget 2s, %d pivots)", elapsed, fs.Iterations)
		}
		t.Logf("LP1 256x8: %v, %d pivots, %d working rows, T*=%.3f", elapsed, fs.Iterations, fs.Rows, fs.T)
	})
}

// TestSparseLPSpeedupSmoke is the CI bench-smoke assertion: the
// sparse path's forest-48x8 build must beat the dense oracle by ≥3×,
// as the median per-pair ratio of solverBuildRow, the helper behind
// the record's solver_build rows. It only runs when BENCH_SMOKE=1 —
// wall-clock ratios are meaningless under the race detector or a
// loaded laptop — and skips on single-core runners, whose scheduling
// noise swamps millisecond builds.
func TestSparseLPSpeedupSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 to run the sparse-vs-dense speedup gate")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("speedup gate needs ≥2 cores for stable timing")
	}
	s, ok := solve.Get("forest")
	if !ok {
		t.Fatal("no forest solver registered")
	}
	seed := sim.SeedFor(1, "bench-build/forest")
	in := workload.OutTree(workload.Config{Jobs: 48, Machines: 8, Seed: seed})
	row := solverBuildRow(s, "out-tree", in, paramsWithSeed(sim.SeedFor(seed, "build")))
	if row.Error != "" {
		t.Fatal(row.Error)
	}
	t.Logf("forest 48x8 build (median of %d pairs): sparse %.2fms dense %.2fms ratio %.2fx",
		timedPairs, row.BuildMS, row.DenseBuildMS, row.SpeedupVsDense)
	if row.SpeedupVsDense < 3 {
		t.Errorf("sparse forest-48x8 build only %.2fx faster than dense (want ≥3x): sparse %.2fms dense %.2fms",
			row.SpeedupVsDense, row.BuildMS, row.DenseBuildMS)
	}
}
