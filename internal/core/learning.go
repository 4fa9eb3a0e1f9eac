package core

import (
	"math"
	"slices"

	"suu/internal/model"
	"suu/internal/sched"
)

// LearningPolicy is an implementation of the paper's §5 "online
// versions" future-work direction: scheduling when the success
// probabilities p_ij are unknown and must be learned from execution
// feedback. It keeps a Beta(α, β) posterior per (machine, job) pair,
// schedules greedily with MSM-ALG on the posterior means (optionally
// inflated by an optimism bonus, UCB-style), and updates the
// posteriors from the outcomes the simulator reports through the
// sched.OutcomeObserver interface.
//
// Credit assignment is necessarily approximate: when several machines
// are assigned to a job that completes, the policy cannot observe
// which machine succeeded, so every assigned machine receives a
// fractional success proportional to its current posterior mean (an
// EM-flavoured soft update). Failures are exact (all assigned machines
// failed). With a single machine per job this is exactly the
// Beta-Bernoulli update, hence consistent.
//
// This is an extension beyond the paper; it is exercised by the tests
// and the adaptive-vs-oblivious example but carries no approximation
// guarantee. The posterior persists across simulated episodes, so
// repeated sim.Run calls train it.
type LearningPolicy struct {
	// In provides the dimensions; its probabilities are never read.
	In *model.Instance

	// Optimism adds c·sqrt(ln(t+1)/(attempts+1)) to the posterior mean
	// when ranking pairs (0 disables the bonus).
	Optimism float64

	alpha [][]float64
	beta  [][]float64
	step  int

	// Scratch reused on every step, so neither Assign nor Observe
	// allocates: the ranked pairs of the eligible jobs, the assignment
	// Assign returns, MSM-ALG's mass buffer, and per job the machines
	// the played assignment gives it (capacity M each), listed in jobs
	// in order of first appearance.
	order PairOrder
	out   sched.Assignment
	mass  []float64
	byJob [][]int
	jobs  []int
}

var _ sched.Policy = (*LearningPolicy)(nil)
var _ sched.OutcomeObserver = (*LearningPolicy)(nil)

// NewLearningPolicy returns a learner with a uniform Beta(1,1) prior.
func NewLearningPolicy(in *model.Instance, optimism float64) *LearningPolicy {
	lp := &LearningPolicy{
		In:       in,
		Optimism: optimism,
		order:    PairOrder{m: in.M, n: in.N, pairs: make([]pairPJ, 0, in.M*in.N)},
		out:      make(sched.Assignment, in.M),
		mass:     make([]float64, in.N),
		byJob:    make([][]int, in.N),
		jobs:     make([]int, 0, in.N),
	}
	machines := make([]int, in.N*in.M)
	for j := range lp.byJob {
		lp.byJob[j] = machines[j*in.M : j*in.M : (j+1)*in.M]
	}
	lp.alpha = make([][]float64, in.M)
	lp.beta = make([][]float64, in.M)
	for i := range lp.alpha {
		lp.alpha[i] = make([]float64, in.N)
		lp.beta[i] = make([]float64, in.N)
		for j := range lp.alpha[i] {
			lp.alpha[i][j], lp.beta[i][j] = 1, 1
		}
	}
	return lp
}

// Estimate returns the current posterior mean for (machine, job).
func (lp *LearningPolicy) Estimate(i, j int) float64 {
	return lp.alpha[i][j] / (lp.alpha[i][j] + lp.beta[i][j])
}

// Attempts returns the number of observed trials for (machine, job).
func (lp *LearningPolicy) Attempts(i, j int) float64 {
	return lp.alpha[i][j] + lp.beta[i][j] - 2
}

// Assign implements sched.Policy: greedy MSM-ALG over the current
// (optimistic) estimates of the eligible jobs' pairs, ranked in place
// in the learner's own buffer. The returned assignment is reused by
// the next call.
func (lp *LearningPolicy) Assign(st *sched.State) sched.Assignment {
	lp.step++
	pairs := lp.order.pairs[:0]
	for i := 0; i < lp.In.M; i++ {
		for j := 0; j < lp.In.N; j++ {
			if !st.Eligible[j] {
				continue
			}
			v := lp.Estimate(i, j)
			if lp.Optimism > 0 {
				v += lp.Optimism * math.Sqrt(math.Log(float64(lp.step)+1)/(lp.Attempts(i, j)+1))
			}
			if v > 1 {
				v = 1
			}
			if v > 0 {
				pairs = append(pairs, pairPJ{i, j, v})
			}
		}
	}
	slices.SortFunc(pairs, comparePairs)
	lp.order.pairs = pairs
	return lp.order.MSMInto(lp.out, lp.mass, st.Eligible, nil)
}

// FrozenLearningPolicy is a stationary snapshot of a learner: MSM-ALG
// greedy over a fixed estimate matrix, with no optimism bonus and no
// further posterior updates. Because it neither observes outcomes nor
// reads the step counter, it is sched.Memoizable — the simulation
// engine memoizes its states and fans repetitions out across
// workers, which is how trained learners are evaluated at
// scale (the live learner must stay on the sequential generic engine).
type FrozenLearningPolicy struct {
	// Est carries the frozen posterior means in an instance shell. Like
	// AdaptivePolicy.In, it is sorted on the first Assign and must not
	// change after.
	Est *model.Instance

	order onceOrder
}

var _ sched.Memoizable = (*FrozenLearningPolicy)(nil)

// Assign implements sched.Policy.
func (p *FrozenLearningPolicy) Assign(st *sched.State) sched.Assignment {
	return p.order.get(p.Est).MSM(st.Eligible, nil)
}

// Memoizable marks the snapshot stationary.
func (p *FrozenLearningPolicy) Memoizable() {}

// Frozen snapshots the learner's current posterior means into a
// stationary policy. The snapshot is independent of the learner:
// further training does not change it.
func (lp *LearningPolicy) Frozen() *FrozenLearningPolicy {
	est := model.New(lp.In.N, lp.In.M)
	for i := 0; i < lp.In.M; i++ {
		for j := 0; j < lp.In.N; j++ {
			est.P[i][j] = lp.Estimate(i, j)
		}
	}
	return &FrozenLearningPolicy{Est: est}
}

// Observe implements sched.OutcomeObserver: exact failure updates,
// soft-credit success updates. Each job's update reads and writes only
// its own column of the posteriors, so the order of jobs is immaterial.
func (lp *LearningPolicy) Observe(played sched.Assignment, completed []bool) {
	lp.jobs = lp.jobs[:0]
	for i, j := range played {
		if j != sched.Idle && j >= 0 && j < lp.In.N {
			if len(lp.byJob[j]) == 0 {
				lp.jobs = append(lp.jobs, j)
			}
			lp.byJob[j] = append(lp.byJob[j], i)
		}
	}
	for _, j := range lp.jobs {
		machines := lp.byJob[j]
		lp.byJob[j] = machines[:0]
		if !completed[j] {
			for _, i := range machines {
				lp.beta[i][j]++
			}
			continue
		}
		total := 0.0
		for _, i := range machines {
			total += lp.Estimate(i, j)
		}
		for _, i := range machines {
			w := 1.0 / float64(len(machines))
			if total > 0 {
				w = lp.Estimate(i, j) / total
			}
			lp.alpha[i][j] += w
			lp.beta[i][j] += 1 - w
		}
	}
}
