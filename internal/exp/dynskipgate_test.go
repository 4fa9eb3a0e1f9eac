package exp

import (
	"os"
	"runtime"
	"testing"
)

// TestDynamicSkipSpeedupSmoke is the CI bench-smoke assertion for the
// dynamic walk's jump over steps that trial nothing: on the
// staggered-arrival, no-burst quick T15 cell, estimating the deployed
// oblivious schedule must beat the same schedule behind
// sched.PolicyFunc, which forces the per-step walk, by ≥10×. It times
// both with dynamicSkipTiming, the helper behind the record's
// dynamic/*.skip_speedup, and so catches a silent loss of the skip,
// such as a wrapper that hides the *sched.Oblivious. Like the other
// speedup gates it only runs when BENCH_SMOKE=1 and skips on
// single-core runners. The two walks draw identically (pinned by
// dyn's TestSkipMatchesStepwise, and checked again by the helper), so
// this gate is purely about throughput.
func TestDynamicSkipSpeedupSmoke(t *testing.T) {
	if os.Getenv("BENCH_SMOKE") == "" {
		t.Skip("set BENCH_SMOKE=1 to run the dynamic skip speedup gate")
	}
	if runtime.NumCPU() < 2 {
		t.Skip("speedup gate needs ≥2 cores for stable timing")
	}
	cfg := Config{Quick: true, Seed: 1}
	p := t15StreamingPoint(cfg, 0)
	skip, stepwise, err := dynamicSkipTiming(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	ratio := stepwise / skip
	t.Logf("dynamic skip %dx%d spacing-%d no-burst oblivious (%d reps): skipping %.3fms per-step %.3fms ratio %.2fx",
		p.Jobs, p.Machines, t15Spacings[t15StreamingSpacing], cfg.reps(), skip, stepwise, ratio)
	if ratio < 10 {
		t.Errorf("the skipping dynamic walk is only %.2fx faster than the per-step walk (want ≥10x): skipping %.3fms per-step %.3fms",
			ratio, skip, stepwise)
	}
}
