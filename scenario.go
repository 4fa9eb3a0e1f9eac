package suu

import (
	"suu/internal/dyn"
)

// Scenario layers deterministic dynamics over an instance: staggered
// job arrivals, machine breakdown windows, and hidden Markov-modulated
// failure bursts. Build one with NewScenario and the chainable event
// methods, then evaluate strategies against it:
//
//	sc := suu.NewScenario(inst).
//		ArriveAt(4, 10).        // job 4 released at step 10
//		Breakdown(1, 20, 35).   // machine 1 down for steps [20,35)
//		Burst(0, 0.15, 0.9, 0.3) // machine 0 bursty: 15% bad, sticky
//	oblivious, _ := sc.EstimateMakespan(schedule, 2000)
//	adaptive, _ := sc.EstimateAdaptive(2000)
//	rolling, _ := sc.EstimateRolling(2000, suu.WithSeed(7))
//
// A scenario with no events is exactly the static problem: every
// estimate delegates to the static engines and is bit-identical to the
// corresponding static call. All estimates accept the package's
// uniform options (WithSeed, WithWorkers, WithMaxSteps, ...) and are
// bit-identical at any worker count.
type Scenario struct {
	x     *Instance
	inner *dyn.Scenario
}

// NewScenario returns an event-free scenario over x. Builder errors
// (out-of-range jobs, invalid intervals) are recorded and reported by
// Validate and every Estimate call, so the chain never needs
// intermediate error checks.
func NewScenario(x *Instance) *Scenario {
	return &Scenario{x: x, inner: dyn.New(x.inner)}
}

// ArriveAt releases job at the given step: before it the job is
// invisible — not eligible, and not blocking successors' eligibility
// any differently than an unfinished predecessor would. Step 0 (the
// default for every job) means present from the start.
func (sc *Scenario) ArriveAt(job, step int) *Scenario {
	sc.inner.ArriveAt(job, step)
	return sc
}

// Breakdown takes machine down for the half-open step interval
// [from, to): assignments to it are ignored while it is down.
func (sc *Scenario) Breakdown(machine, from, to int) *Scenario {
	sc.inner.Breakdown(machine, from, to)
	return sc
}

// Burst attaches a hidden two-state Markov failure regime to machine
// (-1 = every machine): in the long run the machine spends fraction
// p0 of its steps in the bad state, regimes persist with probability
// alpha per step (0 = memoryless, →1 = long sticky bursts), and while
// bad every success probability on the machine is multiplied by
// severity. Policies never observe the regime; only completion draws
// feel it.
func (sc *Scenario) Burst(machine int, p0, alpha, severity float64) *Scenario {
	sc.inner.Burst(machine, p0, alpha, severity)
	return sc
}

// Validate reports the first builder error or an invalid underlying
// instance.
func (sc *Scenario) Validate() error { return sc.inner.Validate() }

// Static reports whether the scenario has no events, i.e. is exactly
// the static problem.
func (sc *Scenario) Static() bool { return sc.inner.Static() }

// estimate runs strat and converts the result.
func (sc *Scenario) estimate(strat dyn.Strategy, reps int, o options) (Estimate, error) {
	sum, incomplete, eng, err := dyn.EstimateInfo(sc.inner, strat, reps, o.maxSteps, o.simSeed, o.workers)
	if err != nil {
		return Estimate{}, err
	}
	return newEstimate(sum, incomplete, eng), nil
}

// EstimateMakespan evaluates a fixed schedule under the scenario: the
// schedule is executed obliviously to the dynamics (assignments to
// down machines are wasted; late jobs stay ineligible), which answers
// "how would this deployed schedule have fared". With no events it is
// bit-identical to Schedule.EstimateMakespan.
func (sc *Scenario) EstimateMakespan(s *Schedule, reps int, opts ...Option) (Estimate, error) {
	if err := s.checkShape(sc.x); err != nil {
		return Estimate{}, err
	}
	return sc.estimate(dyn.NewStatic(sc.inner, s.policy), reps, buildOptions(opts))
}

// EstimateAdaptive evaluates the availability-aware greedy: SUU-I-ALG
// rerun every step on the currently eligible jobs and up machines. It
// sees arrivals and breakdowns but not the hidden burst regimes.
func (sc *Scenario) EstimateAdaptive(reps int, opts ...Option) (Estimate, error) {
	return sc.estimate(dyn.NewAdaptive(sc.inner), reps, buildOptions(opts))
}

// EstimateRolling evaluates the rolling-horizon re-solver: at every
// event epoch (arrival or breakdown boundary) it re-invokes a registry
// solver — WithSolver names one; the default dispatches like Solve —
// on the surviving sub-instance, warm-starting the LP from the initial
// solve's exported basis, and plays the refreshed schedule until the
// next epoch. Construction uses the WithSeed seed; repeated event
// states reuse cached plans, and estimates stay bit-identical at any
// worker count.
func (sc *Scenario) EstimateRolling(reps int, opts ...Option) (Estimate, error) {
	o := buildOptions(opts)
	strat, err := dyn.NewRolling(sc.inner, o.solver, o.par)
	if err != nil {
		return Estimate{}, err
	}
	return sc.estimate(strat, reps, o)
}
