package sim

import (
	"math/rand"
	"sync"

	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/stats"
)

// Result is the outcome of a single execution.
type Result struct {
	// Makespan is the number of steps executed until the last job
	// completed; equals the step cap when Completed is false.
	Makespan int
	// Completed reports whether every job finished within the cap.
	Completed bool
	// Mass[j] is the total mass job j accumulated while unfinished
	// (sum of p[i][j] over machine-steps assigned to j).
	Mass []float64
}

// Run executes policy pol on instance in for at most maxSteps steps
// using rng for completion draws. Machines assigned to ineligible or
// finished jobs idle for the step, per Definition 2.1. For repeated
// runs, prefer a Runner (buffer reuse) or the estimators below.
func Run(in *model.Instance, pol sched.Policy, maxSteps int, rng *rand.Rand) Result {
	r := NewRunner(in, pol)
	makespan, completed := r.Run(maxSteps, rng)
	mass := make([]float64, in.N)
	copy(mass, r.Mass())
	return Result{Makespan: makespan, Completed: completed, Mass: mass}
}

// repRunner is one worker's engine: run executes a repetition, mass
// exposes the per-job mass of the latest repetition as a view.
type repRunner interface {
	run(maxSteps int, rng Rand) (makespan int, completed bool)
	massView() []float64
}

// run adapts Runner to repRunner.
func (r *Runner) run(maxSteps int, rng Rand) (int, bool) { return r.Run(maxSteps, rng) }

func (r *Runner) massView() []float64 { return r.rs.mass }

// Engine names for EngineUsed.Engine. The compiled oblivious engine
// keeps the short name "compiled" that BENCH_sim.json has carried
// since the engine landed; "compiled-lane" is its bit-parallel
// 64-repetitions-per-word form (see lane.go).
const (
	EngineGeneric          = "generic"
	EngineCompiled         = "compiled"
	EngineCompiledAdaptive = "compiled-adaptive"
	EngineLane             = "compiled-lane"
	// EngineLaneAdaptive named the adaptive table walk's lane form,
	// which lost to its scalar walk and was removed. No engine reports
	// it; the name stays for per-engine tallies that still list it.
	EngineLaneAdaptive = "compiled-adaptive-lane"
	// EngineDynamic is the dynamic-scenario step walk (internal/dyn):
	// arrivals, outages and regime modulation change the instance
	// mid-run, which the compiled engines' immutable tables cannot
	// express — they refuse, and the scenario estimator runs this
	// generic-style walk instead. Scenarios without events delegate
	// back to the static engines and report those names.
	EngineDynamic = "dynamic-step"
)

// EngineUsed reports which engine an estimation call actually ran —
// the record satellite harnesses (grid rows, BENCH_sim.json) persist
// so a silent fallback to the slow path is visible in the output, not
// just in wall-clock time.
type EngineUsed struct {
	// Engine is EngineCompiled (event-wise oblivious), its bit-parallel
	// lane form EngineLane, the EngineCompiledAdaptive memo walk, or
	// EngineGeneric.
	Engine string
	// Lanes is the lockstep width of the bit-parallel engine (64), or
	// 0 for the scalar engines.
	Lanes int
	// Workers is the effective fan-out after the parallelizability
	// check (1 = sequential, also for observer policies that silently
	// lose their requested concurrency).
	Workers int
	// States is the number of states the compiled adaptive engine
	// memoized: the distinct unfinished sets the call's repetitions
	// visited, capped at the call's budget (0 for the other engines).
	// Deterministic for a given (instance, policy, reps, maxSteps,
	// seed), at every worker count.
	States int
}

// estimator is one estimation call's engine: the compiled artifacts
// its workers share read-only (each worker gets its own mutable
// runner), the lane decision, and the record the call reports. Only
// Prepared.estimator builds one.
type estimator struct {
	in       *model.Instance
	pol      sched.Policy
	compiled *compiledOblivious
	// memo selects the compiled adaptive engine: each worker memoizes
	// memo's states on first visit, at most budget of them.
	memo   sched.Memoizable
	budget int
	engine EngineUsed
	// lane selects the bit-parallel lockstep form of the compiled
	// oblivious walk (see lane.go); oracle additionally replays it one
	// lane at a time on the scalar walk (the parity tests' exactness
	// oracle).
	lane   bool
	oracle bool
}

// UsesCompiledEngine reports whether the estimators will run pol on
// in with the compiled oblivious engine rather than the generic step
// engine: an oblivious schedule with a non-empty prefix, no outcome
// observation, and an acyclic instance. Exported so reporting code
// (BENCH_sim.json) attributes measurements to the engine that
// actually ran; for the full decision including the compiled adaptive
// engine use the EngineUsed value returned by EstimateInfo.
func UsesCompiledEngine(in *model.Instance, pol sched.Policy) bool {
	o, ok := pol.(*sched.Oblivious)
	if !ok || len(o.Steps) == 0 || !Parallelizable(pol) {
		return false
	}
	_, err := in.Prec.TopoOrder()
	return err == nil
}

// callBudget is the adaptive state budget of one call of reps
// repetitions: the most states one worker memoizes. A state costs
// about one policy call to memoize, the same as one step of the
// generic engine, so a memo bigger than 64× the repetitions could
// never amortize; states past the budget run from a scratch digest.
func callBudget(reps int) int { return min(DefaultAdaptiveCompileBudget, 64*reps) }

// newEstimator selects the engine for one one-shot call: it prepares
// the pair, then applies the same per-call selection a cached
// Prepared applies.
func newEstimator(in *model.Instance, pol sched.Policy, reps int, lanes laneMode) *estimator {
	return Prepare(in, pol).estimator(reps, lanes)
}

// estimateChunk is the number of repetitions aggregated into one
// streaming accumulator. Chunks are the unit of work distribution and
// of deterministic merging; the value trades scheduling granularity
// against the O(reps/estimateChunk) slice of accumulators.
const estimateChunk = 256

// Chunk boundaries must stay lane-group aligned so a 64-rep lane
// group never spans two accumulator chunks (only the final, possibly
// partial group ends mid-width). Compile-time assert.
var _ [estimateChunk % LaneWidth]struct{} = [0]struct{}{}

// ChunkFunc runs repetitions [lo, hi) on one worker's engine, adds
// each makespan to acc in repetition order, and returns how many of
// them hit the step cap.
type ChunkFunc func(lo, hi int, acc *stats.Accumulator) (incomplete int)

// RunChunks is the estimators' chunk runner. It splits reps
// repetitions into fixed chunks, hands chunk indices to workers
// goroutines (each builds its engine once with newWorker, on its own
// goroutine), and merges the per-chunk accumulators in index order.
// Repetition r lands in chunk r/estimateChunk whichever worker ran it,
// so the summary is bit-identical at every worker count provided a
// ChunkFunc's output depends only on its repetition range. It returns
// the summary, the summed incomplete count, and the effective worker
// count (workers clamped to [1, chunks]).
func RunChunks(reps, workers int, newWorker func() ChunkFunc) (stats.Summary, int, int) {
	nchunks := (reps + estimateChunk - 1) / estimateChunk
	accs := make([]stats.Accumulator, nchunks)
	incs := make([]int, nchunks)
	runChunk := func(run ChunkFunc, c int) {
		lo := c * estimateChunk
		incs[c] = run(lo, min(lo+estimateChunk, reps), &accs[c])
	}
	workers = max(min(workers, nchunks), 1)
	if workers == 1 {
		run := newWorker()
		for c := 0; c < nchunks; c++ {
			runChunk(run, c)
		}
	} else {
		next := make(chan int)
		done := make(chan struct{})
		for g := 0; g < workers; g++ {
			go func() {
				defer func() { done <- struct{}{} }()
				run := newWorker()
				for c := range next {
					runChunk(run, c)
				}
			}()
		}
		for c := 0; c < nchunks; c++ {
			next <- c
		}
		close(next)
		for g := 0; g < workers; g++ {
			<-done
		}
	}
	var total stats.Accumulator
	incomplete := 0
	for c := range accs {
		total.Merge(accs[c])
		incomplete += incs[c]
	}
	return total.Summary(), incomplete, workers
}

// run executes the chunked estimation on the selected engine.
// Repetition r draws from stream (seed, r) — or, under the lane
// engine, from the group-g lane streams of the remap documented in
// lane.go — so the result is bit-identical for every worker count.
func (e *estimator) run(reps, maxSteps int, seed int64, workers int) (stats.Summary, int, EngineUsed) {
	var mu sync.Mutex
	var memos []*adaptRunner
	sum, incomplete, workers := RunChunks(reps, workers, func() ChunkFunc {
		it := e.newIter(seed, false)
		if a, ok := it.scalar.(*adaptRunner); ok {
			mu.Lock()
			memos = append(memos, a)
			mu.Unlock()
		}
		return func(lo, hi int, acc *stats.Accumulator) (inc int) {
			it.run(lo, hi, maxSteps, func(makespan int, completed bool, _ []float64) {
				acc.Add(float64(makespan))
				if !completed {
					inc++
				}
			})
			return inc
		}
	})
	eng := e.engine
	eng.Workers = workers
	if memos != nil {
		eng.States = memoizedStates(memos, e.budget)
	}
	return sum, incomplete, eng
}

// repIter runs one worker's repetitions in repetition order on the
// selected engine. The scalar walks reseed stream (seed, r) for
// repetition r; the lane walk runs 64-repetition groups under the
// remap and drains each group in lane order, which is repetition
// order. Every estimator — chunked, quantile and mass — reads its
// repetitions through this loop, so all of them see the same sample
// for the same (engine, seed, reps).
type repIter struct {
	scalar repRunner
	lanes  laneWorker
	// mass holds the lane walk's per-lane mass columns when tracking is
	// on, nil otherwise.
	mass []float64
	n    int
	seed int64
	rng  Stream
}

// newIter builds one worker's iterator. trackMass turns on the lane
// walk's per-lane mass columns; the scalar walks always track mass.
func (e *estimator) newIter(seed int64, trackMass bool) *repIter {
	it := &repIter{n: e.in.N, seed: seed}
	switch {
	case e.lane:
		it.lanes = e.newLaneWorker(seed)
		if trackMass {
			it.mass = it.lanes.massLanes()
		}
	case e.compiled != nil:
		it.scalar = e.compiled.newRunner()
	case e.memo != nil:
		it.scalar = newAdaptRunner(e.in, e.memo, e.budget)
	default:
		it.scalar = NewRunner(e.in, e.pol)
	}
	return it
}

// run executes repetitions [lo, hi) — lo a multiple of LaneWidth on
// the lane walk — and calls visit for each in repetition order with
// its makespan, completion flag and per-job mass. The mass slice is a
// view valid only during the call, and nil on the lane walk without
// mass tracking.
func (it *repIter) run(lo, hi, maxSteps int, visit func(makespan int, completed bool, mass []float64)) {
	if it.lanes == nil {
		for r := lo; r < hi; r++ {
			it.rng.Reseed(it.seed, int64(r))
			makespan, completed := it.scalar.run(maxSteps, &it.rng)
			visit(makespan, completed, it.scalar.massView())
		}
		return
	}
	for g := lo; g < hi; g += LaneWidth {
		cnt := min(hi-g, LaneWidth)
		mk, completed := it.lanes.runGroup(int64(g/LaneWidth), cnt, maxSteps)
		for l := 0; l < cnt; l++ {
			var mass []float64
			if it.mass != nil {
				mass = it.mass[l*it.n : (l+1)*it.n]
			}
			visit(int(mk[l]), completed>>uint(l)&1 == 1, mass)
		}
	}
}

// estimate is the one-shot estimator behind every exported form:
// engine selection for (in, pol, reps) under the lane mode, then the
// chunked run.
func estimate(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, workers int, lanes laneMode) (stats.Summary, int, EngineUsed) {
	if reps <= 0 {
		panic("sim: reps must be positive")
	}
	return newEstimator(in, pol, reps, lanes).run(reps, maxSteps, seed, workers)
}

// Estimate runs reps independent executions (repetition r's RNG
// stream is derived deterministically from (seed, r)) and returns the
// summary of observed makespans together with the number of runs that
// hit the step cap without completing. Aggregation is streaming: the
// full sample is never materialized.
func Estimate(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64) (stats.Summary, int) {
	sum, inc, _ := estimate(in, pol, reps, maxSteps, seed, 1, lanesAuto)
	return sum, inc
}

// EstimateInfo is Estimate plus the EngineUsed record — which engine
// actually ran (compiled oblivious or its lane form, compiled adaptive
// with its memoized state count, or the generic step engine). Harness
// code that persists results should prefer this form so a fallback to
// the slow path is recorded, not inferred.
func EstimateInfo(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64) (stats.Summary, int, EngineUsed) {
	return estimate(in, pol, reps, maxSteps, seed, 1, lanesAuto)
}

// EstimateInfoLanes is EstimateInfo with the lane decision passed per
// call: lanes=true is EstimateInfo's dispatch, lanes=false runs the
// scalar walks at every repetition count — what a lane-vs-scalar
// timing needs where dispatch would pick lanes. The two forms sample
// different draws of the same distribution whenever lanes would run.
func EstimateInfoLanes(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, lanes bool) (stats.Summary, int, EngineUsed) {
	mode := lanesAuto
	if !lanes {
		mode = lanesOff
	}
	return estimate(in, pol, reps, maxSteps, seed, 1, mode)
}

// massSeedSalt decorrelates MassWithinHorizon's streams from
// Estimate's when both are called with the same seed.
const massSeedSalt = 0x6D617373 // "mass"

// MassWithinHorizon runs reps executions of pol truncated at horizon
// steps and returns, for job j, the fraction of runs in which j
// accumulated mass at least threshold. Used to validate Theorem 2.2
// empirically. It runs on the engine Estimate would select for reps,
// the lane walk included (with per-lane mass columns, see
// laneWorker.massLanes).
func MassWithinHorizon(in *model.Instance, pol sched.Policy, horizon, reps int, threshold float64, seed int64) []float64 {
	return massWithinHorizon(in, pol, horizon, reps, threshold, seed, lanesAuto)
}

func massWithinHorizon(in *model.Instance, pol sched.Policy, horizon, reps int, threshold float64, seed int64, lanes laneMode) []float64 {
	counts := make([]float64, in.N)
	it := newEstimator(in, pol, reps, lanes).newIter(seed^massSeedSalt, true)
	it.run(0, reps, horizon, func(_ int, _ bool, mass []float64) {
		for j, m := range mass {
			if m >= threshold-1e-12 {
				counts[j]++
			}
		}
	})
	for j := range counts {
		counts[j] /= float64(reps)
	}
	return counts
}
