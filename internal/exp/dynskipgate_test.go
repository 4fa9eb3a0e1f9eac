package exp

import (
	"os"
	"runtime"
	"testing"
)

// TestDynamicSkipSpeedupSmoke is the CI bench-smoke assertion for the
// dynamic walk's jump over steps that trial nothing: on the
// staggered-arrival quick T15 cells, estimating the deployed oblivious
// schedule must beat the same schedule behind sched.PolicyFunc, which
// forces the per-step walk, by ≥10× with no burst and by ≥5× under the
// moderate burst, where the walk also applies regime flips as it
// passes them, as the median per-pair ratio of dynamicSkipTiming, the
// helper behind the record's dynamic/*.skip_speedup. It so catches a
// silent loss of the skip, such as a wrapper that hides the
// *sched.Oblivious, or a return to regime draws per skipped step.
// Like the other speedup gates it only runs when BENCH_SMOKE=1 and
// skips on single-core runners. The two walks draw identically
// (pinned by dyn's TestSkipMatchesStepwise, and checked again by the
// helper), so this gate is purely about throughput.
func TestDynamicSkipSpeedupSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 to run the dynamic skip speedup gate")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("speedup gate needs ≥2 cores for stable timing")
	}
	cfg := Config{Quick: true, Seed: 1}
	for _, c := range []struct {
		burst int
		floor float64
	}{
		{0, 10}, // no burst
		{1, 5},  // the moderate burst
	} {
		p := t15StreamingPoint(cfg, c.burst)
		name := t15Bursts[c.burst].name
		tm, err := dynamicSkipTiming(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("dynamic skip %dx%d spacing-%d burst %s oblivious (%d reps, median of %d pairs): skipping %v per-step %v ratio %.2fx",
			p.Jobs, p.Machines, t15Spacings[t15StreamingSpacing], name, cfg.reps(), timedPairs, tm.A, tm.B, tm.Ratio)
		if tm.Ratio < c.floor {
			t.Errorf("the skipping dynamic walk on the burst %s cell is only %.2fx faster than the per-step walk (want ≥%gx): skipping %.3fms per-step %.3fms",
				name, tm.Ratio, c.floor, tm.A.Median, tm.B.Median)
		}
	}
}
