package sim

import (
	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/stats"
)

// MakespanQuantilesParallel runs reps executions, walked across
// concurrency workers (<= 0 selects GOMAXPROCS; observer policies run
// on one), and returns the requested quantiles of the realized
// makespan distribution (e.g. 0.5, 0.9, 0.99) along with the sample
// itself, in repetition order. Tail quantiles matter for the
// project-management story: a manager cares about the deadline they can
// promise with 95% confidence, not only the mean. The sample is
// materialized because it is part of the return value; callers that
// only need an estimate at scale can feed a stats.P2Quantile instead.
// The sample is exactly the one EstimateParallelInfo summarizes for
// the same (policy, reps, maxSteps, seed): same engine, same draws,
// and bit-identical at every concurrency.
func MakespanQuantilesParallel(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, qs []float64, concurrency int) ([]float64, []float64) {
	if reps <= 0 {
		panic("sim: reps must be positive")
	}
	xs := make([]float64, 0, reps)
	Prepare(in, pol).estimator(reps, lanesAuto).walk(reps, maxSteps, seed, effectiveWorkers(pol, concurrency), func(w []float64) { xs = append(xs, w...) })
	out := make([]float64, len(qs))
	for k, q := range qs {
		out[k] = stats.Quantile(xs, q)
	}
	return out, xs
}
