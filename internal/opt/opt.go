package opt

import (
	"errors"
	"math"
	"math/bits"

	"suu/internal/model"
	"suu/internal/sched"
)

// Limits guard the exponential enumeration.
const (
	// MaxJobs bounds n for the exhaustive oracle (2^n scanned states).
	// The value iteration behind OptimalRegimen is bounded by MaxStates
	// (closed states actually generated) instead.
	MaxJobs = 16
	// MaxAssignmentsPerState bounds k^m when searching the optimal
	// assignment of one state.
	MaxAssignmentsPerState = 1 << 22
)

// ErrTooLarge is returned when an instance exceeds the exact-solver
// limits. The value-iteration paths return a *TooLargeError wrapping
// it that names the instance size and the limit hit; match with
// errors.Is.
var ErrTooLarge = errors.New("opt: instance too large for exact computation")

// closedStates enumerates all reachable unfinished-set masks: S is
// closed iff for every j ∉ S, all predecessors of j are also ∉ S —
// equivalently, j ∈ S implies every successor of j is in S.
func closedStates(in *model.Instance) []uint64 {
	n := in.N
	var states []uint64
	for s := uint64(0); s < 1<<uint(n); s++ {
		ok := true
		for j := 0; j < n && ok; j++ {
			if s&(1<<uint(j)) == 0 {
				continue
			}
			for _, succ := range in.Prec.Succs(j) {
				if s&(1<<uint(succ)) == 0 {
					ok = false
					break
				}
			}
		}
		if ok {
			states = append(states, s)
		}
	}
	return states
}

// eligibleOf returns the eligible jobs of state s: unfinished jobs all
// of whose predecessors are finished.
func eligibleOf(in *model.Instance, s uint64) []int {
	var el []int
	for j := 0; j < in.N; j++ {
		if s&(1<<uint(j)) == 0 {
			continue
		}
		ok := true
		for _, p := range in.Prec.Preds(j) {
			if s&(1<<uint(p)) != 0 {
				ok = false
				break
			}
		}
		if ok {
			el = append(el, j)
		}
	}
	return el
}

// stateValue computes E[S] for one state given the per-eligible-job
// success probabilities q and the values of all strictly smaller
// states in E. Returns +Inf when no progress is possible.
func stateValue(s uint64, el []int, q []float64, value map[uint64]float64) float64 {
	k := len(el)
	// Enumerate subsets T of eligible jobs; accumulate P(T)·E[S\T].
	// P(∅) handled separately for the closed form.
	pNone := 1.0
	for _, qj := range q {
		pNone *= 1 - qj
	}
	if pNone >= 1-1e-15 {
		return math.Inf(1)
	}
	sum := 0.0
	for t := 1; t < 1<<uint(k); t++ {
		pT := 1.0
		mask := uint64(0)
		for b := 0; b < k; b++ {
			if t&(1<<uint(b)) != 0 {
				pT *= q[b]
				mask |= 1 << uint(el[b])
			} else {
				pT *= 1 - q[b]
			}
		}
		if pT == 0 {
			continue
		}
		sum += pT * value[s&^mask]
	}
	return (1 + sum) / (1 - pNone)
}

// successProbs computes, for assignment a, the completion probability
// of each eligible job el[b] (machines assigned to ineligible jobs are
// treated as idle, matching the executor).
func successProbs(in *model.Instance, a sched.Assignment, el []int) []float64 {
	pos := make(map[int]int, len(el))
	for b, j := range el {
		pos[j] = b
	}
	fail := make([]float64, len(el))
	for b := range fail {
		fail[b] = 1
	}
	for i, j := range a {
		if j == sched.Idle {
			continue
		}
		if b, ok := pos[j]; ok {
			fail[b] *= 1 - in.P[i][j]
		}
	}
	q := make([]float64, len(el))
	for b := range q {
		q[b] = 1 - fail[b]
	}
	return q
}

// ExactRegimen computes the exact expected makespan of regimen r from
// the all-unfinished start state. Returns +Inf if some reachable state
// makes no progress under r. States come from down-set generation, so
// the reach matches OptimalRegimen (MaxStates closed states), not the
// oracle's MaxJobs bound.
func ExactRegimen(in *model.Instance, r *sched.Regimen) (float64, error) {
	lat, err := lattice(in)
	if err != nil {
		return 0, err
	}
	ns := len(lat.Masks)
	value := make([]float64, ns)
	unfinished := make([]bool, in.N)
	state := &sched.State{Unfinished: unfinished}
	pos := make([]int32, in.N) // job → eligible slot of the current state
	fail := make([]float64, lat.MaxK)
	slotJob := make([]int, lat.MaxK)
	trial := make([]int32, 0, in.M)
	succ := make([]int32, 1) // successor state of each subset in the DP
	pv := make([]float64, 1) // probabilities parallel to succ
	for si := 1; si < ns; si++ {
		s := lat.Masks[si]
		elm := lat.Elig[si]
		k := 0
		for e := elm; e != 0; e &= e - 1 {
			j := bits.TrailingZeros64(e)
			pos[j] = int32(k)
			slotJob[k] = j
			fail[k] = 1
			k++
		}
		for j := 0; j < in.N; j++ {
			unfinished[j] = s&(1<<uint(j)) != 0
		}
		a := r.Assign(state)
		trial = trial[:0]
		var touched uint64
		for i, j := range a {
			if j == sched.Idle || j < 0 || j >= in.N || elm&(1<<uint(j)) == 0 {
				continue // idle, or an ineligible job the executor ignores
			}
			d := pos[j]
			if touched&(1<<uint(d)) == 0 {
				touched |= 1 << uint(d)
				trial = append(trial, d)
			}
			fail[d] *= 1 - in.P[i][j]
		}
		// Slot-order product matches the oracle's stateValue. Slots a
		// machine touched with p=0 keep fail==1 and q==0: their subset
		// terms vanish, so the DP below can skip them entirely.
		pNone := 1.0
		for d := 0; d < k; d++ {
			pNone *= fail[d]
		}
		if pNone >= 1-1e-15 {
			value[si] = math.Inf(1)
			continue
		}
		t := 0
		for _, d := range trial {
			if fail[d] < 1 {
				trial[t] = d
				t++
			}
		}
		if need := 1 << uint(t); len(succ) < need {
			succ = make([]int32, need)
			pv = make([]float64, need)
		}
		// Subset DP over the trialed slots; a subset's successor state
		// is reached from its parent's by one more single removal.
		size := 1
		succ[0], pv[0] = int32(si), 1
		for i := 0; i < t; i++ {
			f := fail[trial[i]]
			q := 1 - f
			j := slotJob[trial[i]]
			for x := 0; x < size; x++ {
				succ[size+x] = lat.Without(succ[x], j)
				pv[size+x] = pv[x] * q
				pv[x] *= f
			}
			size <<= 1
		}
		sum := 0.0
		for x := 1; x < size; x++ {
			if p := pv[x]; p != 0 {
				sum += p * value[succ[x]]
			}
		}
		value[si] = (1 + sum) / (1 - pNone)
	}
	return value[ns-1], nil
}

// OptimalRegimen computes the optimal regimen and its exact expected
// makespan T_OPT with the parallel value iteration of valueiter.go
// (workers = GOMAXPROCS; results are bit-identical at any count).
func OptimalRegimen(in *model.Instance) (*sched.Regimen, float64, error) {
	reg, v, _, err := OptimalRegimenParallel(in, 0)
	return reg, v, err
}

// OptimalRegimenExhaustive is the original Malewicz-style DP —
// exhaustive minimization over k^m assignment functions per state with
// full 2^eligible subset sums over a 2^n closed-state scan. It is
// retained solely as the parity oracle for the value iteration (the
// dense-tableau role of the sparse simplex): slower on every instance,
// but an independent implementation of the same recurrence. Machines
// are restricted to eligible jobs (an optimal regimen never benefits
// from assigning a machine to an ineligible job, whose completion
// cannot occur).
func OptimalRegimenExhaustive(in *model.Instance) (*sched.Regimen, float64, error) {
	if in.N > MaxJobs {
		return nil, 0, ErrTooLarge
	}
	states := closedStates(in)
	value := map[uint64]float64{0: 0}
	reg := sched.NewRegimen(in.N, in.M)

	for _, s := range states {
		if s == 0 {
			continue
		}
		el := eligibleOf(in, s)
		k := len(el)
		total := 1
		for i := 0; i < in.M; i++ {
			total *= k
			if total > MaxAssignmentsPerState {
				return nil, 0, ErrTooLarge
			}
		}
		bestVal := math.Inf(1)
		var bestAssign sched.Assignment
		a := make(sched.Assignment, in.M)
		fail := make([]float64, k)
		// Enumerate all k^m assignments via mixed-radix counting.
		idx := make([]int, in.M)
		for {
			for b := range fail {
				fail[b] = 1
			}
			for i := 0; i < in.M; i++ {
				a[i] = el[idx[i]]
				fail[idx[i]] *= 1 - in.P[i][el[idx[i]]]
			}
			q := make([]float64, k)
			for b := range q {
				q[b] = 1 - fail[b]
			}
			v := stateValue(s, el, q, value)
			if v < bestVal {
				bestVal = v
				bestAssign = a.Clone()
			}
			// Increment mixed-radix counter.
			c := 0
			for c < in.M {
				idx[c]++
				if idx[c] < k {
					break
				}
				idx[c] = 0
				c++
			}
			if c == in.M {
				break
			}
		}
		value[s] = bestVal
		reg.F[s] = bestAssign
	}
	full := uint64(1)<<uint(in.N) - 1
	return reg, value[full], nil
}

// GreedyRegimen builds the stationary policy that, in every state,
// runs MSM-style greedy matching supplied by assign; it is a helper to
// freeze an adaptive policy into a regimen for exact evaluation.
func GreedyRegimen(in *model.Instance, assign func(unfinished, eligible []bool) sched.Assignment) (*sched.Regimen, error) {
	lat, err := lattice(in)
	if err != nil {
		return nil, err
	}
	reg := sched.NewRegimen(in.N, in.M)
	unf := make([]bool, in.N)
	elig := make([]bool, in.N)
	for si := 1; si < len(lat.Masks); si++ {
		s := lat.Masks[si]
		elm := lat.Elig[si]
		for j := 0; j < in.N; j++ {
			unf[j] = s&(1<<uint(j)) != 0
			elig[j] = elm&(1<<uint(j)) != 0
		}
		reg.F[s] = assign(append([]bool(nil), unf...), append([]bool(nil), elig...))
	}
	return reg, nil
}

// StateCount returns the number of reachable (closed) states — a
// difficulty measure reported by the experiment harness.
func StateCount(in *model.Instance) (int, error) {
	lat, err := lattice(in)
	if err != nil {
		return 0, err
	}
	return len(lat.Masks), nil
}
