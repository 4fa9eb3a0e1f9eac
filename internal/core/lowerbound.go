package core

import "suu/internal/model"

// TrivialLowerBound returns elementary certified lower bounds on the
// optimal expected makespan, independent of the LP:
//
//   - 1 (at least one step);
//   - n/m (each step completes at most m jobs, since a machine works on
//     a single job per step);
//   - max_j 1/q_j where q_j = 1 − Π_i(1 − p_ij) is job j's best possible
//     single-step completion probability (all machines ganged on j):
//     job j alone needs expected time ≥ 1/q_j;
//   - depth(dag): precedence paths must complete sequentially, one unit
//     step at a time.
func TrivialLowerBound(in *model.Instance) float64 {
	lb := 1.0
	if v := float64(in.N) / float64(in.M); v > lb {
		lb = v
	}
	for j := 0; j < in.N; j++ {
		q := 1.0
		for i := 0; i < in.M; i++ {
			q *= 1 - in.P[i][j]
		}
		q = 1 - q
		if q > 0 {
			if v := 1 / q; v > lb {
				lb = v
			}
		}
	}
	if v := float64(in.Prec.Depth()); v > lb {
		lb = v
	}
	return lb
}

// CombinedLowerBound strengthens the Lemma 4.2 bound T*/16 with the
// trivial bounds. Every component is a valid lower bound on T_OPT, so
// the max is too.
func CombinedLowerBound(in *model.Instance, tStar float64) float64 {
	return combineLowerBounds(TrivialLowerBound(in), tStar)
}

// combineLowerBounds is CombinedLowerBound with the trivial bound
// already computed, for callers that combine it with several LP
// optima.
func combineLowerBounds(trivial, tStar float64) float64 {
	if v := LPLowerBound(tStar); v > trivial {
		return v
	}
	return trivial
}
