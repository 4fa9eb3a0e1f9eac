package suu

import (
	"fmt"
	"math/rand"

	"suu/internal/core"
	"suu/internal/sched"
	"suu/internal/sim"
	"suu/internal/solve"
	"suu/internal/stats"
)

// Schedule is a solved SUU schedule: either an oblivious schedule
// (finite prefix plus tail) or an adaptive policy. It carries the
// construction's certified metadata.
type Schedule struct {
	policy sched.Policy
	// jobs and machines are the shape of the instance the schedule was
	// built for; 0 is unknown and not checked. A loaded schedule's
	// payload records only its machine count.
	jobs, machines int

	// Kind names the construction ("chains (Thm 4.4)", ...).
	Kind string
	// Guarantee is the paper's approximation bound for this
	// construction on this instance class.
	Guarantee string
	// Adaptive reports whether the schedule reacts to the unfinished
	// set (regimens, greedy policies) rather than being oblivious.
	Adaptive bool
	// PrefixLen is the oblivious prefix length (0 for adaptive).
	PrefixLen int
	// CoreLength is the pre-replication prefix in which every job
	// accumulates the certified mass (0 for adaptive).
	CoreLength int
	// LPValue is the LP optimum T* when an LP was solved (0 otherwise).
	LPValue float64
	// LowerBound is the certified lower bound on the optimal expected
	// makespan (T*/16, Lemma 4.2), when available.
	LowerBound float64
}

// Estimate summarizes a Monte Carlo makespan estimate.
type Estimate struct {
	// Mean is the estimated expected makespan.
	Mean float64
	// HalfWidth95 is the 95% confidence half-width of Mean.
	HalfWidth95 float64
	// Min and Max are the extreme observed makespans.
	Min, Max float64
	// Runs is the number of simulations, Incomplete how many hit the
	// step cap before finishing (should be 0; a nonzero value means the
	// cap was too small).
	Runs, Incomplete int
	// Engine records which simulation engine produced the estimate.
	Engine EngineInfo
}

// EngineInfo is the provenance of one estimate: which engine ran and
// at what effective fan-out. Estimates are bit-identical across
// worker counts; the engine name explains speed.
type EngineInfo struct {
	// Name is the engine identifier: "generic", "compiled", its
	// bit-parallel form "compiled-lane", "compiled-adaptive", or
	// "dynamic-step" for scenario walks.
	Name string
	// Lanes is the lockstep width of the bit-parallel engines (64), 0
	// for the scalar ones.
	Lanes int
	// Workers is the effective goroutine fan-out after the
	// parallelizability check: the requested workers, at most one per
	// work unit of 8 repetitions (1 on the dynamic walk, 64 on the
	// bit-parallel engine).
	Workers int
	// States is the number of states the compiled adaptive engine
	// memoized: the distinct unfinished sets the repetitions visited,
	// capped at the call's budget (0 for the other engines).
	States int
}

// newEstimate converts an internal summary + engine record.
func newEstimate(sum stats.Summary, incomplete int, eng sim.EngineUsed) Estimate {
	return Estimate{
		Mean:        sum.Mean,
		HalfWidth95: sum.HalfWidth95,
		Min:         sum.Min,
		Max:         sum.Max,
		Runs:        sum.N,
		Incomplete:  incomplete,
		Engine: EngineInfo{
			Name:    eng.Engine,
			Lanes:   eng.Lanes,
			Workers: eng.Workers,
			States:  eng.States,
		},
	}
}

// String renders "mean ± hw".
func (e Estimate) String() string {
	return fmt.Sprintf("%.2f ± %.2f steps (n=%d)", e.Mean, e.HalfWidth95, e.Runs)
}

// EstimateMakespan estimates the schedule's expected makespan on the
// instance by Monte Carlo simulation with reps independent runs.
// WithWorkers fans the repetitions out across goroutines without
// changing a single bit of the result.
func (s *Schedule) EstimateMakespan(x *Instance, reps int, opts ...Option) (Estimate, error) {
	if err := x.Validate(); err != nil {
		return Estimate{}, err
	}
	if err := s.checkShape(x); err != nil {
		return Estimate{}, err
	}
	o := buildOptions(opts)
	if err := o.checkEstimate(reps); err != nil {
		return Estimate{}, err
	}
	sum, incomplete, eng := sim.EstimateParallelInfo(x.inner, s.policy, reps, o.maxSteps, o.simSeed, o.workers)
	return newEstimate(sum, incomplete, eng), nil
}

// RunOnce executes the schedule once with the given seed and returns
// the realized makespan and whether all jobs completed within the cap.
// It panics when x's shape differs from the schedule's build instance.
func (s *Schedule) RunOnce(x *Instance, seed int64, maxSteps int) (int, bool) {
	if err := s.checkShape(x); err != nil {
		panic(err.Error())
	}
	res := sim.Run(x.inner, s.policy, maxSteps, rand.New(rand.NewSource(seed)))
	return res.Makespan, res.Completed
}

// checkShape reports an error when x is not shaped like the instance
// the schedule was built for: the engines index the schedule's
// assignments by x's machines and jobs. An oblivious schedule must
// also name only x's jobs, in its prefix and in its tail order; a
// loaded payload records no job count, so this is where one naming a
// job x lacks is refused. The check reads each prefix run once.
func (s *Schedule) checkShape(x *Instance) error {
	if (s.machines != 0 && s.machines != x.inner.M) || (s.jobs != 0 && s.jobs != x.inner.N) {
		built := fmt.Sprintf("%d jobs × %d machines", s.jobs, s.machines)
		if s.jobs == 0 {
			built = fmt.Sprintf("%d machines", s.machines)
		}
		return fmt.Errorf("suu: schedule built for %s, instance has %d jobs × %d machines", built, x.inner.N, x.inner.M)
	}
	if o, ok := s.policy.(*sched.Oblivious); ok {
		if err := o.Validate(x.inner.N); err != nil {
			return fmt.Errorf("suu: schedule does not fit the %d-job instance: %w", x.inner.N, err)
		}
	}
	return nil
}

// Baseline names a reference policy for comparisons.
type Baseline string

// Available baselines.
const (
	// BaselineGreedy: every machine independently picks the eligible
	// job it is best at.
	BaselineGreedy Baseline = "greedy-maxp"
	// BaselineRoundRobin rotates machines over eligible jobs.
	BaselineRoundRobin Baseline = "round-robin"
	// BaselineAllOnOne gangs all machines on the first eligible job.
	BaselineAllOnOne Baseline = "all-on-one"
	// BaselineRandom assigns machines to uniformly random eligible jobs.
	BaselineRandom Baseline = "random"
)

// NewBaseline returns the named baseline policy as a Schedule. The
// names are registry ids; every solver registered as a baseline in
// internal/solve is accepted.
func NewBaseline(x *Instance, b Baseline, seed int64) (*Schedule, error) {
	s, ok := solve.Get(string(b))
	if !ok || !s.Baseline {
		return nil, fmt.Errorf("suu: unknown baseline %q", b)
	}
	par := core.DefaultParams()
	par.Seed = seed
	res, err := s.Build(x.inner, par)
	if err != nil {
		return nil, err
	}
	return fromResult(res, x), nil
}

// MakespanQuantiles estimates quantiles of the makespan distribution
// (e.g. 0.5, 0.9, 0.95) from reps simulated executions — the deadline
// the schedule can promise with the given confidence, not just its
// mean. WithWorkers fans the repetitions out without changing a bit
// of the result.
func (s *Schedule) MakespanQuantiles(x *Instance, reps int, qs []float64, opts ...Option) ([]float64, error) {
	if err := x.Validate(); err != nil {
		return nil, err
	}
	if err := s.checkShape(x); err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	if err := o.checkEstimate(reps); err != nil {
		return nil, err
	}
	quants, _ := sim.MakespanQuantilesParallel(x.inner, s.policy, reps, o.maxSteps, o.simSeed, qs, o.workers)
	return quants, nil
}
