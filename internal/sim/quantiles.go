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
	return makespanQuantiles(in, pol, reps, maxSteps, seed, qs, lanesAuto)
}

// MakespanQuantilesParallel is MakespanQuantiles with the repetitions
// walked across concurrency workers (<= 0 selects GOMAXPROCS; observer
// policies run on one, as in EstimateParallel). The sample and the
// quantiles are bit-identical at every concurrency.
func MakespanQuantilesParallel(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, qs []float64, concurrency int) ([]float64, []float64) {
	return sampleQuantiles(in, pol, reps, maxSteps, seed, qs, effectiveWorkers(pol, concurrency), lanesAuto)
}

func makespanQuantiles(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, qs []float64, lanes laneMode) ([]float64, []float64) {
	return sampleQuantiles(in, pol, reps, maxSteps, seed, qs, 1, lanes)
}

func sampleQuantiles(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, qs []float64, workers int, lanes laneMode) ([]float64, []float64) {
	xs := make([]float64, 0, reps)
	eachWindow(in, pol, reps, maxSteps, seed, workers, lanes, func(w []float64) { xs = append(xs, w...) })
	out := make([]float64, len(qs))
	for k, q := range qs {
		out[k] = stats.Quantile(xs, q)
	}
	return out, xs
}

// MakespanP2Quantiles estimates the requested quantiles with
// streaming P² estimators (stats.P2Quantile) instead of materializing
// the sample, so memory stays one window of makespans. P² is
// order-sensitive and does not merge, so the estimators read the
// makespans in repetition order, on the engine Estimate selects —
// under the lane engine each 64-rep group drains in lane order, the
// exact order the scalar remap oracle produces them one at a time — so
// the estimate depends only on (policy, reps, maxSteps, seed), never
// on how samples were packed into words or spread over workers.
func MakespanP2Quantiles(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, qs []float64) []float64 {
	return makespanP2Quantiles(in, pol, reps, maxSteps, seed, qs, lanesAuto)
}

func makespanP2Quantiles(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, qs []float64, lanes laneMode) []float64 {
	return p2Quantiles(in, pol, reps, maxSteps, seed, qs, 1, lanes)
}

func p2Quantiles(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, qs []float64, workers int, lanes laneMode) []float64 {
	ps := make([]*stats.P2Quantile, len(qs))
	for k, q := range qs {
		ps[k] = stats.NewP2Quantile(q)
	}
	eachWindow(in, pol, reps, maxSteps, seed, workers, lanes, func(w []float64) {
		for _, x := range w {
			for _, p := range ps {
				p.Add(x)
			}
		}
	})
	out := make([]float64, len(qs))
	for k, p := range ps {
		out[k] = p.Value()
	}
	return out
}

// eachWindow walks reps repetitions across workers on the engine
// Estimate selects under lanes and hands fold their makespans window
// by window, in repetition order.
func eachWindow(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, workers int, lanes laneMode, fold func(makespans []float64)) {
	if reps <= 0 {
		panic("sim: reps must be positive")
	}
	newEstimator(in, pol, reps, lanes).walk(reps, maxSteps, seed, workers, fold)
}
