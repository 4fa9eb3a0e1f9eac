package dyn

import (
	"suu/internal/core"
	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/sim"
)

// StaticStrategy replays a fixed policy obliviously to the dynamics:
// the policy sees the arrived jobs only through Eligible, and
// assignments to down machines are simply wasted (the policies written
// for the static problem never read State.Up). It is the degrading
// baseline every dynamic table compares against — and the evaluator
// for "how would my deployed schedule have fared under this scenario".
// An outcome-observing policy observes the walk, as it observes the
// static engine.
type StaticStrategy struct {
	sc  *Scenario
	pol sched.Policy
}

// NewStatic wraps pol for walks over sc.
func NewStatic(sc *Scenario, pol sched.Policy) *StaticStrategy {
	return &StaticStrategy{sc: sc, pol: pol}
}

// Name implements Strategy.
func (s *StaticStrategy) Name() string { return "static" }

// StaticPolicy implements Strategy: the wrapped policy is its own
// event-free equivalent.
func (s *StaticStrategy) StaticPolicy() (sched.Policy, bool) { return s.pol, true }

// parallelizable defers to the engine's check: every worker walks the
// wrapped policy, so an outcome-observing policy pins the fan-out to
// one worker exactly as the static estimators do.
func (s *StaticStrategy) parallelizable() bool { return sim.Parallelizable(s.pol) }

// NewWalker implements Strategy. Every worker shares the wrapped
// policy; on an oblivious one the step engine jumps over the runs
// that trial nothing.
func (s *StaticStrategy) NewWalker() sched.Policy { return s.pol }

// AdaptiveStrategy reruns the MSM greedy every step on the currently
// eligible jobs and up machines (core.MSMAlgMasked's greedy, scanned
// over a per-walker core.PairOrder) — SUU-I-ALG made
// availability-aware. It reads the static probabilities only: the
// hidden regime stays hidden.
type AdaptiveStrategy struct {
	sc *Scenario
}

// NewAdaptive returns the masked-MSM strategy for sc.
func NewAdaptive(sc *Scenario) *AdaptiveStrategy { return &AdaptiveStrategy{sc: sc} }

// Name implements Strategy.
func (s *AdaptiveStrategy) Name() string { return "adaptive" }

// StaticPolicy implements Strategy: with every machine up the masked
// greedy coincides with SUU-I-ALG exactly, which the compiled
// adaptive engine can memoize.
func (s *AdaptiveStrategy) StaticPolicy() (sched.Policy, bool) {
	return &core.AdaptivePolicy{In: s.sc.In}, true
}

func (s *AdaptiveStrategy) parallelizable() bool { return true }

// NewWalker implements Strategy.
func (s *AdaptiveStrategy) NewWalker() sched.Policy { return newMSMWalker(s.sc.In) }

// msmWalker runs the masked MSM greedy over its own pair order, sorted
// once per walker, into its own assignment and mass buffers, so a step
// allocates nothing.
type msmWalker struct {
	order *core.PairOrder
	out   sched.Assignment
	mass  []float64
}

func newMSMWalker(in *model.Instance) *msmWalker {
	return &msmWalker{
		order: core.NewPairOrder(in),
		out:   make(sched.Assignment, in.M),
		mass:  make([]float64, in.N),
	}
}

func (w *msmWalker) Assign(st *sched.State) sched.Assignment {
	return w.order.MSMInto(w.out, w.mass, st.Eligible, st.Up)
}
