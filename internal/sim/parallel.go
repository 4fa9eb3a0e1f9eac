package sim

import (
	"runtime"

	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/stats"
)

// Parallelizable reports whether the estimators can fan pol out
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

// EstimateParallelInfo runs reps independent executions of pol on in
// and returns the summary of their makespans, the number that hit the
// step cap without completing, and the EngineUsed record: which engine
// ran the repetitions (compiled oblivious or its lane form, compiled
// adaptive with its memoized state count, or the generic step engine)
// and the effective worker count, which is how grid rows and
// BENCH_sim.json record the engine that actually ran. It is
// Prepare(in, pol).EstimateParallelInfo.
//
// Repetition r's RNG stream is derived from (seed, r). Workers claim
// units of 8 repetitions (one LaneWidth group on the lane walk), so
// any call of more than one unit fans out, to
// min(concurrency, ⌈reps/unit⌉) workers, and each makespan is folded
// into its 256-repetition chunk in repetition order, chunks merging in
// a fixed order: the summary is bit-identical at every concurrency,
// and parallelism changes only wall-clock time. Aggregation is
// streaming: the full sample is never materialized.
//
// The policy is shared across workers, which requires
// Parallelizable(pol); when it is false (the policy observes
// outcomes), the call ignores concurrency and runs sequentially —
// identical results, no fan-out, reported as EngineUsed.Workers == 1.
// concurrency <= 0 selects GOMAXPROCS.
func EstimateParallelInfo(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, concurrency int) (stats.Summary, int, EngineUsed) {
	return Prepare(in, pol).EstimateParallelInfo(reps, maxSteps, seed, concurrency)
}

// effectiveWorkers resolves a requested concurrency against the
// policy's parallelizability: observer policies always run
// sequentially, and concurrency <= 0 selects GOMAXPROCS.
func effectiveWorkers(pol sched.Policy, concurrency int) int {
	if !Parallelizable(pol) || concurrency == 1 {
		return 1
	}
	if concurrency <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return concurrency
}
