package dyn

import (
	"sync"

	"suu/internal/core"
	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/sim"
)

// StaticStrategy replays a fixed policy obliviously to the dynamics:
// the policy sees the standard sched.State (unfinished/eligible/step)
// and nothing about outages or arrivals; assignments to down machines
// are simply wasted. It is the degrading baseline every dynamic table
// compares against — and the evaluator for "how would my deployed
// schedule have fared under this scenario".
type StaticStrategy struct {
	sc  *Scenario
	pol sched.Policy

	// runEnds is the run table of an oblivious policy's prefix, built
	// on the first NewWalker call; sim.RunChunks calls NewWalker on
	// concurrent workers.
	once    sync.Once
	runEnds []int32
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

// parallelizable defers to the engine's check: walkers share the
// wrapped policy, so an outcome-observing policy pins the fan-out to
// one worker exactly as the static estimators do.
func (s *StaticStrategy) parallelizable() bool { return sim.Parallelizable(s.pol) }

// NewWalker implements Strategy. An oblivious policy with a non-empty
// prefix gets a walker that reports its runs of identical steps.
func (s *StaticStrategy) NewWalker() Walker {
	if o, ok := s.pol.(*sched.Oblivious); ok && o.Len() > 0 {
		s.once.Do(func() {
			s.runEnds = make([]int32, o.Len())
			for t := 0; t < o.Len(); {
				for end := o.RunEnd(t); t < end; t++ {
					s.runEnds[t] = int32(end)
				}
			}
		})
		return &obliviousWalker{o: o, ends: s.runEnds}
	}
	return &staticWalker{pol: s.pol}
}

type staticWalker struct {
	pol sched.Policy
	st  sched.State
}

func (w *staticWalker) Reset() {}

func (w *staticWalker) Assign(st *State) sched.Assignment {
	w.st.Unfinished = st.Unfinished
	w.st.Eligible = st.Eligible
	w.st.Step = st.Step
	return w.pol.Assign(&w.st)
}

// obliviousWalker is the static walker of an oblivious schedule.
// Oblivious.At is pure, so the walk may skip its Assign calls.
type obliviousWalker struct {
	o *sched.Oblivious
	// ends[s] is the first prefix step after s whose assignment
	// differs in content from step s's, or the prefix length.
	ends []int32
}

func (w *obliviousWalker) Reset() {}

func (w *obliviousWalker) Assign(st *State) sched.Assignment { return w.o.At(st.Step) }

// runEnd implements runWalker. A nil tail cycles the prefix, so the
// table wraps; a tail such as TopoRoundRobin may change job every
// step.
func (w *obliviousWalker) runEnd(t int) int {
	l := len(w.ends)
	switch {
	case t < l:
		return int(w.ends[t])
	case w.o.Tail != nil:
		return t + 1
	default:
		return t - t%l + int(w.ends[t%l])
	}
}

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
func (s *AdaptiveStrategy) NewWalker() Walker { return newMSMWalker(s.sc.In) }

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

func (w *msmWalker) Reset() {}

func (w *msmWalker) Assign(st *State) sched.Assignment {
	return w.order.MSMInto(w.out, w.mass, st.Eligible, st.Up)
}
