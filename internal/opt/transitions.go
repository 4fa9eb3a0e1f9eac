package opt

import (
	"sort"

	"suu/internal/model"
	"suu/internal/sched"
)

// Transition is one outgoing edge of the scheduling Markov chain: from
// an unfinished-set state, with the given probability, to the state
// where the jobs in Completed have finished.
type Transition struct {
	Next uint64
	Prob float64
}

// Transitions returns the distribution over successor states when
// assignment a is played in state s (bitmask of unfinished jobs).
// Machines assigned to ineligible jobs idle, matching the executor.
// Used by the exact solvers and by the Figure 1 reproduction.
func Transitions(in *model.Instance, s uint64, a sched.Assignment) []Transition {
	el := eligibleOf(in, s)
	q := successProbs(in, a, el)
	k := len(el)
	var out []Transition
	for t := 0; t < 1<<uint(k); t++ {
		p := 1.0
		mask := uint64(0)
		for b := 0; b < k; b++ {
			if t&(1<<uint(b)) != 0 {
				p *= q[b]
				mask |= 1 << uint(el[b])
			} else {
				p *= 1 - q[b]
			}
		}
		if p > 0 {
			out = append(out, Transition{Next: s &^ mask, Prob: p})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Next > out[j].Next })
	return out
}

// ClosedStates exposes the reachable unfinished-set states in
// increasing mask order (the exact solvers' state space), for the
// Figure 1 reproduction and diagnostics. States come from down-set
// generation, so the limit is MaxStates generated states rather than
// the oracle's MaxJobs.
func ClosedStates(in *model.Instance) ([]uint64, error) {
	lat, err := lattice(in)
	if err != nil {
		return nil, err
	}
	out := append([]uint64(nil), lat.Masks...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}
