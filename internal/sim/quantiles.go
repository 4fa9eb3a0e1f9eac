package sim

import (
	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/stats"
)

// MakespanQuantiles runs reps executions and returns the requested
// quantiles of the realized makespan distribution (e.g. 0.5, 0.9,
// 0.99) along with the sample itself. Tail quantiles matter for the
// project-management story: a manager cares about the deadline she can
// promise with 95% confidence, not only the mean. The sample is
// materialized because it is part of the return value; callers that
// only need an estimate at scale can feed a stats.P2Quantile instead.
// The sample is exactly the one Estimate summarizes for the same
// (policy, reps, maxSteps, seed): same engine, same draws, repetition
// order.
func MakespanQuantiles(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, qs []float64) ([]float64, []float64) {
	return sampleQuantiles(in, pol, reps, maxSteps, seed, qs, 1)
}

// MakespanQuantilesParallel is MakespanQuantiles with the repetitions
// walked across concurrency workers (<= 0 selects GOMAXPROCS; observer
// policies run on one, as in EstimateParallel). The sample and the
// quantiles are bit-identical at every concurrency.
func MakespanQuantilesParallel(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, qs []float64, concurrency int) ([]float64, []float64) {
	return sampleQuantiles(in, pol, reps, maxSteps, seed, qs, effectiveWorkers(pol, concurrency))
}

// sampleQuantiles walks reps repetitions across workers on the engine
// Estimate selects, on a pooled workspace, and returns the quantiles
// of their makespans with the sample, in repetition order.
func sampleQuantiles(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, qs []float64, workers int) ([]float64, []float64) {
	if reps <= 0 {
		panic("sim: reps must be positive")
	}
	xs := make([]float64, 0, reps)
	ws := workspacePool.Get().(*workspace)
	prepare(in, pol, ws).estimator(reps, lanesAuto).walk(reps, maxSteps, seed, workers, func(w []float64) { xs = append(xs, w...) })
	ws.release()
	out := make([]float64, len(qs))
	for k, q := range qs {
		out[k] = stats.Quantile(xs, q)
	}
	return out, xs
}
