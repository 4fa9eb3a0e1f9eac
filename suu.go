// Package suu is a Go implementation of the approximation algorithms
// of Lin & Rajaraman, "Approximation Algorithms for Multiprocessor
// Scheduling under Uncertainty" (SPAA 2007).
//
// The problem: n unit-time jobs must be executed by m machines under
// precedence constraints; when machine i works on job j for one step,
// the job completes with probability p[i][j], independently across
// machines and steps. Several machines may gang up on one job. The
// goal is to minimize the expected makespan.
//
// Quick start:
//
//	inst := suu.NewInstance(3, 2)
//	inst.SetProb(0, 0, 0.9) // machine 0 is good at job 0
//	inst.SetProb(1, 1, 0.8)
//	inst.SetProb(0, 2, 0.3)
//	inst.AddPrecedence(0, 1) // job 0 before job 1
//	s, err := suu.Solve(inst, suu.WithSeed(7))
//	est, err := s.EstimateMakespan(inst, 1000)
//
// Solve dispatches on the shape of the precedence dag to the paper's
// strongest applicable construction:
//
//	independent jobs  → LP-based oblivious schedule (Theorem 4.5)
//	disjoint chains   → LP + rounding + random delays (Theorem 4.4)
//	in-/out-forests   → chain decomposition pipeline (Theorem 4.8)
//	mixed forests     → per-component decomposition (Theorem 4.7)
//	anything else     → level-decomposition fallback (correct; no
//	                    polylog guarantee from the paper)
//
// Every construction — the dispatch targets above, the adaptive
// policy (Theorem 3.3), the combinatorial oblivious schedule
// (Theorem 3.6), exact small-instance optima (Malewicz's dynamic
// program), the online learner, and the baselines — lives in the
// solver registry (internal/solve); Solve and the cmd/ tools are thin
// dispatchers over it.
//
// Dynamic scenarios — staggered job arrivals, machine breakdown
// windows, and hidden Markov-modulated failure bursts — wrap an
// instance via NewScenario and are evaluated with the same options
// vocabulary as everything else; see Scenario.
package suu

import (
	"errors"
	"fmt"

	"suu/internal/core"
	"suu/internal/model"
	"suu/internal/solve"
)

// Instance is an SUU problem instance under construction.
type Instance struct {
	inner *model.Instance
}

// NewInstance returns an instance with nJobs jobs and nMachines
// machines, all probabilities zero, and no precedence constraints.
func NewInstance(nJobs, nMachines int) *Instance {
	return &Instance{inner: model.New(nJobs, nMachines)}
}

// FromMatrix builds an instance from a [machine][job] probability
// matrix and a list of precedence edges (before, after).
func FromMatrix(p [][]float64, edges [][2]int) (*Instance, error) {
	if len(p) == 0 || len(p[0]) == 0 {
		return nil, errors.New("suu: empty probability matrix")
	}
	in := NewInstance(len(p[0]), len(p))
	for i := range p {
		if len(p[i]) != len(p[0]) {
			return nil, fmt.Errorf("suu: ragged matrix row %d", i)
		}
		for j := range p[i] {
			in.inner.P[i][j] = p[i][j]
		}
	}
	for _, e := range edges {
		if err := in.AddPrecedence(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return in, in.Validate()
}

// Jobs returns the number of jobs.
func (x *Instance) Jobs() int { return x.inner.N }

// Machines returns the number of machines.
func (x *Instance) Machines() int { return x.inner.M }

// SetProb sets the per-step success probability of machine i on job j.
func (x *Instance) SetProb(machine, job int, p float64) {
	x.inner.P[machine][job] = p
}

// Prob returns the success probability of machine i on job j.
func (x *Instance) Prob(machine, job int) float64 {
	return x.inner.P[machine][job]
}

// AddPrecedence declares that job `before` must complete before job
// `after` becomes eligible.
func (x *Instance) AddPrecedence(before, after int) error {
	return x.inner.Prec.AddEdge(before, after)
}

// Validate checks all structural invariants (dimensions, probability
// ranges, acyclicity, and that every job has a capable machine).
func (x *Instance) Validate() error { return x.inner.Validate() }

// Class describes the precedence family ("independent", "chains",
// "out-forest", "in-forest", "mixed-forest", or "general"), which
// determines the guarantee Solve can offer.
func (x *Instance) Class() string { return x.inner.Prec.Classify().String() }

// Width returns the dag width (maximum antichain) — Malewicz's
// hardness parameter.
func (x *Instance) Width() int { return x.inner.Prec.Width() }

// Depth returns the number of jobs on the longest precedence path.
func (x *Instance) Depth() int { return x.inner.Prec.Depth() }

// Clone returns an independent deep copy.
func (x *Instance) Clone() *Instance { return &Instance{inner: x.inner.Clone()} }

// Solve computes an oblivious schedule using the strongest
// construction the paper offers for the instance's precedence class:
// it classifies the dag and dispatches to the best-ranked applicable
// solver in the registry (see the package comment for the resulting
// dispatch table).
func Solve(x *Instance, opts ...Option) (*Schedule, error) {
	if err := x.Validate(); err != nil {
		return nil, err
	}
	_, res, err := solve.Auto(x.inner, buildParams(opts))
	if err != nil {
		return nil, err
	}
	return fromResult(res, x), nil
}

// registrySchedule builds the named registry solver; it panics on an
// unknown id, which would be a programming error in this package.
func registrySchedule(id string, x *Instance, par core.Params) (*Schedule, error) {
	s, ok := solve.Get(id)
	if !ok {
		panic(fmt.Sprintf("suu: solver %q not registered", id))
	}
	res, err := s.Build(x.inner, par)
	if err != nil {
		return nil, err
	}
	return fromResult(res, x), nil
}

// Adaptive returns SUU-I-ALG (Theorem 3.3): the greedy adaptive policy
// that reruns MSM-ALG on the unfinished eligible jobs every step. For
// independent jobs its expected makespan is O(log n)·OPT; with
// precedence constraints it is a feasible greedy heuristic.
//
// Like every construction in this package it takes ...Option and
// returns (*Schedule, error); MustAdaptive is the panicking shorthand.
func Adaptive(x *Instance, opts ...Option) (*Schedule, error) {
	if err := x.Validate(); err != nil {
		return nil, err
	}
	return registrySchedule("adaptive", x, buildParams(opts))
}

// MustAdaptive is Adaptive panicking on error — the construction
// itself cannot fail, so the only panics are invalid instances. It
// exists for the callers that used the pre-redesign error-free
// signature; new code should call Adaptive.
func MustAdaptive(x *Instance, opts ...Option) *Schedule {
	s, err := Adaptive(x, opts...)
	if err != nil {
		panic(fmt.Sprintf("suu: adaptive: %v", err))
	}
	return s
}

// ObliviousCombinatorial returns SUU-I-OBL (Theorem 3.6) for
// independent jobs: a pure combinatorial (LP-free) oblivious schedule
// with expected makespan O(log² n)·OPT.
func ObliviousCombinatorial(x *Instance, opts ...Option) (*Schedule, error) {
	return registrySchedule("comb-oblivious", x, buildParams(opts))
}

// Optimal computes the exact optimal regimen and its expected makespan
// via dynamic programming over unfinished-job states (Malewicz). Only
// feasible for small instances; returns opt.ErrTooLarge beyond the
// guards.
func Optimal(x *Instance) (*Schedule, float64, error) {
	s, ok := solve.Get("optimal")
	if !ok {
		panic("suu: optimal solver not registered")
	}
	res, err := s.Build(x.inner, core.DefaultParams())
	if err != nil {
		return nil, 0, err
	}
	return fromResult(res, x), res.ExactValue, nil
}

// LowerBound computes a certified lower bound on the optimal expected
// makespan: the maximum of the Lemma 4.2 LP bound T*/16 (the (LP1)
// relaxation is solved over the instance's minimum chain cover, whose
// constraints relax the true dag's) and elementary bounds (n/m, dag
// depth, per-job all-machines geometric time).
func LowerBound(x *Instance, opts ...Option) (float64, error) {
	if err := x.Validate(); err != nil {
		return 0, err
	}
	par := buildParams(opts)
	cover := x.inner.Prec.MinChainCover()
	fs, err := core.SolveLP1(x.inner, cover, par.MassTarget)
	if err != nil {
		return 0, err
	}
	return core.CombinedLowerBound(x.inner, fs.T), nil
}

// fromResult wraps a registry result built on x in the public
// Schedule type.
func fromResult(res *solve.Result, x *Instance) *Schedule {
	return &Schedule{
		policy:     res.Policy,
		jobs:       x.inner.N,
		machines:   x.inner.M,
		Kind:       res.Kind,
		Guarantee:  res.Guarantee,
		Adaptive:   res.Adaptive,
		PrefixLen:  res.PrefixLen,
		CoreLength: res.CoreLength,
		LPValue:    res.LPValue,
		LowerBound: res.LowerBound,
	}
}
