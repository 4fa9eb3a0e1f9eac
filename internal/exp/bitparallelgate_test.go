package exp

import (
	"os"
	"runtime"
	"testing"

	"suu/internal/sim"
)

// TestBitParallelSpeedupSmoke is the CI bench-smoke assertion for the
// 64-lane bit-parallel engine: estimating the SUUChains schedules on
// the T12 chains families must beat the scalar compiled engine by ≥5×,
// as the median per-pair ratio of bitParallelRow, the helper behind
// the record's bitparallel_engine rows (the scalar run pinned per call
// with sim.EstimateInfoLanes, identical reps and seeds). It only runs
// when BENCH_SMOKE=1 — wall-clock ratios are meaningless under the
// race detector or a loaded laptop — and skips on single-core runners,
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
	const reps = 20_000
	for _, bc := range bitParallelEngineCases(Config{Seed: 1})[:2] { // chains-48x8, chains-96x12
		in, pol, polName, err := bc.build(sim.SeedFor(1, "bench-bitparallel/"+bc.family))
		if err != nil {
			t.Fatalf("%s: %v", bc.family, err)
		}
		row := bitParallelRow(bc.family, polName, in, pol, reps, 77)
		if row.Error != "" {
			t.Fatalf("%s: %s", bc.family, row.Error)
		}
		t.Logf("bitparallel %s estimation (%d reps, median of %d pairs): lane %.0f reps/s scalar %.0f reps/s ratio %.2fx",
			bc.family, reps, timedPairs, row.LaneRepsPerSec, row.ScalarRepsPerSec, row.Speedup)
		if row.Speedup < 5 {
			t.Errorf("bit-parallel estimation on %s only %.2fx faster than the scalar compiled engine (want ≥5x): lane %.0f reps/s scalar %.0f reps/s",
				bc.family, row.Speedup, row.LaneRepsPerSec, row.ScalarRepsPerSec)
		}
	}
}
