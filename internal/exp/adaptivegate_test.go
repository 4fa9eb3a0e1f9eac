package exp

import (
	"os"
	"runtime"
	"testing"
)

// TestCompiledAdaptiveSpeedupSmoke is the CI bench-smoke assertion for
// the compiled adaptive engine: estimating the MSM greedy on the
// adaptive_engine reference instance through the memoized transition
// table must beat the generic step engine by ≥3×, as the median
// per-pair ratio of adaptiveEngineRow, the helper behind the record's
// adaptive_engine rows (compile cost included). It only runs when
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
	bc := adaptiveEngineCases(Config{Seed: 1})[0] // independent-12x4
	const reps = 3000
	row := adaptiveEngineRow(bc.family, bc.in, reps, reps, 77)
	if row.Error != "" {
		t.Fatal(row.Error)
	}
	t.Logf("adaptive 12x4 estimation (%d reps, %d states, median of %d pairs): compiled %.0f reps/s generic %.0f reps/s ratio %.2fx",
		reps, row.States, timedPairs, row.CompiledRepsPerSec, row.GenericRepsPerSec, row.Speedup)
	if row.Speedup < 3 {
		t.Errorf("compiled-adaptive estimation only %.2fx faster than the generic step engine (want ≥3x): compiled %.0f reps/s generic %.0f reps/s",
			row.Speedup, row.CompiledRepsPerSec, row.GenericRepsPerSec)
	}
}
