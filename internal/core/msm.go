package core

import (
	"cmp"
	"slices"
	"sync"

	"suu/internal/model"
	"suu/internal/sched"
)

// pairPJ is one (machine, job) success probability, used by the greedy
// orderings of MSM-ALG and MSM-E-ALG.
type pairPJ struct {
	i, j int
	p    float64
}

// PairOrder is MSM-ALG's processing order for one instance: every
// (machine, job) pair with p_ij > 0, in non-increasing probability
// order, ties broken by machine then job index for determinism. The
// order never depends on which jobs are active, and a filtered scan of
// it is exactly the sorted order of the filtered pairs, so callers
// that rerun the greedy on changing active sets (SUU-I-ALG every step,
// SUU-I-OBL every peeling round) sort once per instance and scan it.
// A PairOrder is immutable and safe for concurrent use; the instance's
// probabilities must not change after it is built.
type PairOrder struct {
	m, n  int
	pairs []pairPJ
}

// NewPairOrder sorts every positive pair of in.
func NewPairOrder(in *model.Instance) *PairOrder { return newPairOrder(in, nil) }

// newPairOrder sorts the positive pairs of the jobs marked active (nil
// = every job). The one-shot greedies sort only their active pairs,
// which is cheaper than the full order when few jobs are active.
func newPairOrder(in *model.Instance, active []bool) *PairOrder {
	o := &PairOrder{m: in.M, n: in.N}
	for i := 0; i < in.M; i++ {
		for j := 0; j < in.N; j++ {
			if (active == nil || active[j]) && in.P[i][j] > 0 {
				o.pairs = append(o.pairs, pairPJ{i, j, in.P[i][j]})
			}
		}
	}
	slices.SortFunc(o.pairs, comparePairs)
	return o
}

// comparePairs is MSM-ALG's processing order: probability descending,
// then machine, then job. No two pairs compare equal, so every sort
// yields the same order.
func comparePairs(a, b pairPJ) int {
	if c := cmp.Compare(b.p, a.p); c != 0 {
		return c
	}
	if c := cmp.Compare(a.i, b.i); c != 0 {
		return c
	}
	return cmp.Compare(a.j, b.j)
}

// MSM is MSM-ALG over the order: the jobs marked active, the machines
// marked up (nil = every machine). It allocates the returned
// assignment and its mass scratch; MSMInto reuses caller buffers.
func (o *PairOrder) MSM(active, up []bool) sched.Assignment {
	return o.MSMInto(make(sched.Assignment, o.m), make([]float64, o.n), active, up)
}

// MSMInto is MSM with caller-owned buffers: f (one entry per machine)
// receives the assignment and is returned, mass (one entry per job) is
// scratch. The scan skips inactive jobs and machines already claimed
// or down, and stops once every up machine is claimed.
func (o *PairOrder) MSMInto(f sched.Assignment, mass []float64, active, up []bool) sched.Assignment {
	free := 0
	for i := range f {
		f[i] = sched.Idle
		if up == nil || up[i] {
			free++
		}
	}
	clear(mass)
	for _, pr := range o.pairs {
		if free == 0 {
			break
		}
		if !active[pr.j] || f[pr.i] != sched.Idle || (up != nil && !up[pr.i]) {
			continue
		}
		if mass[pr.j]+pr.p <= 1+1e-12 {
			f[pr.i] = pr.j
			mass[pr.j] += pr.p
			free--
		}
	}
	return f
}

// MSMAlg is MSM-ALG (Figure 2): the greedy 1/3-approximation for
// MaxSumMass. It processes the p_ij in non-increasing order and
// assigns machine i to job j when i is still free and j's accumulated
// mass would stay at most 1. active[j] marks the jobs to serve;
// machines left unused are Idle. Callers that rerun the greedy on one
// instance should build a PairOrder once instead.
func MSMAlg(in *model.Instance, active []bool) sched.Assignment {
	return MSMAlgMasked(in, active, nil)
}

// MSMAlgMasked is MSM-ALG restricted to the machines marked up (nil =
// every machine). The dynamic-scenario walk (internal/dyn) uses it as
// the adaptive policy under breakdowns: the greedy ordering is
// unchanged, machines that are down simply never claim a pair, so on
// an all-up mask it coincides with MSMAlg exactly.
func MSMAlgMasked(in *model.Instance, active, up []bool) sched.Assignment {
	return newPairOrder(in, active).MSM(active, up)
}

// SumMass returns the MaxSumMass objective of an assignment: the sum
// over jobs of min(1, Σ_{i: f(i)=j} p_ij).
func SumMass(in *model.Instance, f sched.Assignment) float64 {
	raw := make([]float64, in.N)
	for i, j := range f {
		if j != sched.Idle {
			raw[j] += in.P[i][j]
		}
	}
	total := 0.0
	for _, v := range raw {
		if v > 1 {
			v = 1
		}
		total += v
	}
	return total
}

// BruteForceMSM exhaustively maximizes MaxSumMass over all
// (|active|+1)^m assignments. Exponential; test/ground-truth use only.
func BruteForceMSM(in *model.Instance, active []bool) (sched.Assignment, float64) {
	var act []int
	for j, a := range active {
		if a {
			act = append(act, j)
		}
	}
	choices := len(act) + 1 // each machine: one of the active jobs, or idle
	best := sched.NewIdle(in.M)
	bestVal := 0.0
	cur := make([]int, in.M)
	a := sched.NewIdle(in.M)
	for {
		for i := 0; i < in.M; i++ {
			if cur[i] == len(act) {
				a[i] = sched.Idle
			} else {
				a[i] = act[cur[i]]
			}
		}
		if v := SumMass(in, a); v > bestVal {
			bestVal = v
			best = a.Clone()
		}
		c := 0
		for c < in.M {
			cur[c]++
			if cur[c] < choices {
				break
			}
			cur[c] = 0
			c++
		}
		if c == in.M {
			break
		}
	}
	return best, bestVal
}

// AdaptivePolicy is SUU-I-ALG (Figure 2): in every step it runs
// MSM-ALG on the currently eligible unfinished jobs. For independent
// jobs this is the O(log n)-approximation of Theorem 3.3; with
// precedence constraints it remains a feasible (greedy) policy and is
// used as an adaptive baseline.
//
// The policy sorts In's pairs once, on its first Assign, and scans
// that order every step after; In must not change once the policy is
// in use. Concurrent Assign calls are safe (estimation workers share
// one policy).
type AdaptivePolicy struct {
	In *model.Instance

	order onceOrder
}

// Assign implements sched.Policy.
func (p *AdaptivePolicy) Assign(st *sched.State) sched.Assignment {
	return p.order.get(p.In).MSM(st.Eligible, nil)
}

// Memoizable marks SUU-I-ALG stationary: MSM-ALG is a deterministic
// function of the eligible set, so the simulation engine may memoize
// its assignment per unfinished-set key and run repetitions through
// the compiled adaptive engine.
func (p *AdaptivePolicy) Memoizable() {}

// onceOrder is a PairOrder built on first use, for policies that
// estimation workers share.
type onceOrder struct {
	once  sync.Once
	order *PairOrder
}

func (o *onceOrder) get(in *model.Instance) *PairOrder {
	o.once.Do(func() { o.order = NewPairOrder(in) })
	return o.order
}
