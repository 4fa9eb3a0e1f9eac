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

func makespanQuantiles(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, qs []float64, lanes laneMode) ([]float64, []float64) {
	xs := make([]float64, 0, reps)
	eachMakespan(in, pol, reps, maxSteps, seed, lanes, func(x float64) { xs = append(xs, x) })
	out := make([]float64, len(qs))
	for k, q := range qs {
		out[k] = stats.Quantile(xs, q)
	}
	return out, xs
}

// MakespanP2Quantiles estimates the requested quantiles in O(1)
// memory with streaming P² estimators (stats.P2Quantile) instead of
// materializing the sample. P² is order-sensitive and does not merge,
// so the repetitions run sequentially, in repetition order, on the
// engine Estimate selects — under the lane engine each 64-rep group
// drains in lane order, the exact order the scalar remap oracle
// produces them one at a time — so the estimate depends only on
// (policy, reps, maxSteps, seed), never on how samples were packed
// into words.
func MakespanP2Quantiles(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, qs []float64) []float64 {
	return makespanP2Quantiles(in, pol, reps, maxSteps, seed, qs, lanesAuto)
}

func makespanP2Quantiles(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, qs []float64, lanes laneMode) []float64 {
	ps := make([]*stats.P2Quantile, len(qs))
	for k, q := range qs {
		ps[k] = stats.NewP2Quantile(q)
	}
	eachMakespan(in, pol, reps, maxSteps, seed, lanes, func(x float64) {
		for _, p := range ps {
			p.Add(x)
		}
	})
	out := make([]float64, len(qs))
	for k, p := range ps {
		out[k] = p.Value()
	}
	return out
}

// eachMakespan feeds the makespans of reps sequential repetitions to
// f in repetition order.
func eachMakespan(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, lanes laneMode, f func(float64)) {
	if reps <= 0 {
		panic("sim: reps must be positive")
	}
	it := newEstimator(in, pol, reps, lanes).newIter(seed, false)
	it.run(0, reps, maxSteps, func(makespan int, _ bool, _ []float64) { f(float64(makespan)) })
}
