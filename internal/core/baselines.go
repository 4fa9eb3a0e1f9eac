package core

import (
	"math/bits"

	"suu/internal/model"
	"suu/internal/sched"
)

// Baseline policies used by the experiment harness (Section 1's
// motivation: what does a project manager lose by scheduling naively?).

// GreedyMaxPPolicy assigns every machine, independently, to the
// eligible job it is best at. No coordination: machines may pile onto
// one job while others starve.
type GreedyMaxPPolicy struct {
	In *model.Instance
}

// Assign implements sched.Policy.
func (p *GreedyMaxPPolicy) Assign(st *sched.State) sched.Assignment {
	a := sched.NewIdle(p.In.M)
	for i := 0; i < p.In.M; i++ {
		best := sched.Idle
		bestP := 0.0
		for j := 0; j < p.In.N; j++ {
			if st.Eligible[j] && p.In.P[i][j] > bestP {
				bestP = p.In.P[i][j]
				best = j
			}
		}
		a[i] = best
	}
	return a
}

// Memoizable marks the greedy baseline stationary: each machine's pick
// depends only on the eligible set.
func (p *GreedyMaxPPolicy) Memoizable() {}

// RoundRobinPolicy spreads machines over the eligible jobs in rotating
// order: machine i serves eligible job (i + step) mod k.
type RoundRobinPolicy struct {
	In *model.Instance
}

// Assign implements sched.Policy.
func (p *RoundRobinPolicy) Assign(st *sched.State) sched.Assignment {
	a := sched.NewIdle(p.In.M)
	k := countEligible(st.Eligible)
	if k == 0 {
		return a
	}
	for i := range a {
		a[i] = nthEligible(st.Eligible, (i+st.Step)%k)
	}
	return a
}

// AllOnOnePolicy gangs every machine onto the first eligible job in
// topological order — the paper's observation that assigning all
// machines to a single job yields T_OPT ≤ O(n/p_min·log n), used here
// as the weakest coordinated baseline.
type AllOnOnePolicy struct {
	In *model.Instance
}

// Assign implements sched.Policy.
func (p *AllOnOnePolicy) Assign(st *sched.State) sched.Assignment {
	a := sched.NewIdle(p.In.M)
	for j := 0; j < p.In.N; j++ {
		if st.Eligible[j] {
			for i := range a {
				a[i] = j
			}
			return a
		}
	}
	return a
}

// Memoizable marks the gang baseline stationary: the target job is the
// first eligible index, a pure function of the eligible set.
func (p *AllOnOnePolicy) Memoizable() {}

// RandomPolicy assigns each machine to a uniformly random eligible
// job; the fully uncoordinated baseline. Step t draws from a SplitMix64
// stream keyed by (Seed, t), so the assignment is a pure function of
// the seed, the step and the eligible set: repetitions may share the
// policy across workers, and every call on it draws the same.
type RandomPolicy struct {
	In   *model.Instance
	Seed int64
}

// Assign implements sched.Policy.
func (p *RandomPolicy) Assign(st *sched.State) sched.Assignment {
	a := sched.NewIdle(p.In.M)
	k := countEligible(st.Eligible)
	if k == 0 {
		return a
	}
	// The step's stream is seeded by output Step+1 of the seed's
	// stream, so steps draw from unrelated streams.
	key := newSplitMixSource(p.Seed)
	key.s += uint64(st.Step) * 0x9e3779b97f4a7c15
	src := newSplitMixSource(int64(key.Uint64()))
	for i := range a {
		pick, _ := bits.Mul64(src.Uint64(), uint64(k))
		a[i] = nthEligible(st.Eligible, int(pick))
	}
	return a
}

// countEligible returns how many jobs are eligible.
func countEligible(eligible []bool) int {
	k := 0
	for _, e := range eligible {
		if e {
			k++
		}
	}
	return k
}

// nthEligible returns the r-th eligible job in index order, counting
// from 0, without building the eligible list: the baselines are shared
// across workers, so they keep no buffer, and a list per step would
// allocate. r must be below countEligible(eligible).
func nthEligible(eligible []bool, r int) int {
	for j, e := range eligible {
		if e {
			if r == 0 {
				return j
			}
			r--
		}
	}
	panic("core: nthEligible past the eligible jobs")
}
