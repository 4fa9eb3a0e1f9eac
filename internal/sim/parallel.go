package sim

import (
	"runtime"

	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/stats"
)

// Parallelizable reports whether EstimateParallel can fan pol out
// across workers. Policies that implement sched.OutcomeObserver carry
// mutable per-run state fed back by the simulator, so their
// repetitions must run sequentially; everything else (oblivious
// schedules, regimens, stationary adaptive policies — including every
// sched.Memoizable policy the compiled adaptive engine accepts) is
// safe to share read-only across workers.
func Parallelizable(pol sched.Policy) bool {
	_, observes := pol.(sched.OutcomeObserver)
	return !observes
}

// EstimateParallel is Estimate fanned out over workers. Workers claim
// units of 8 repetitions (one LaneWidth group on the lane walk), so
// any call of more than one unit fans out, to
// min(concurrency, ⌈reps/unit⌉) workers. Each repetition derives its
// RNG stream from (seed, rep) exactly as the sequential version does,
// and its makespan is folded into its 256-repetition chunk in
// repetition order, chunks merging in a fixed order, so the returned
// summary is bit-identical to Estimate's regardless of scheduling —
// parallelism changes only wall-clock time.
//
// The policy is shared across workers, which requires
// Parallelizable(pol); when it is false (the policy observes
// outcomes), EstimateParallel IGNORES the concurrency argument and
// falls back to the sequential path — identical results, no fan-out.
// That decision used to be invisible; EstimateParallelInfo returns it
// as EngineUsed.Workers == 1, and harnesses that persist results
// should call that form. concurrency <= 0 selects GOMAXPROCS.
func EstimateParallel(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, concurrency int) (stats.Summary, int) {
	sum, inc, _ := EstimateParallelInfo(in, pol, reps, maxSteps, seed, concurrency)
	return sum, inc
}

// EstimateParallelInfo is EstimateParallel plus the EngineUsed record:
// which engine ran the repetitions and the effective worker count
// after the parallelizability check — 1 when an observer policy
// silently degraded the requested fan-out to sequential, which is how
// grid rows and BENCH_sim.json record the engine that actually ran.
func EstimateParallelInfo(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, concurrency int) (stats.Summary, int, EngineUsed) {
	return estimate(in, pol, reps, maxSteps, seed, effectiveWorkers(pol, concurrency), lanesAuto)
}

// effectiveWorkers resolves a requested concurrency against the
// policy's parallelizability: observer policies always run
// sequentially, and concurrency <= 0 selects GOMAXPROCS. Shared by
// EstimateParallelInfo and the Prepared form so both degrade
// identically.
func effectiveWorkers(pol sched.Policy, concurrency int) int {
	if !Parallelizable(pol) || concurrency == 1 {
		return 1
	}
	if concurrency <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return concurrency
}
