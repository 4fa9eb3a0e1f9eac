package sim

import (
	"math/rand"
	"sync"
	"sync/atomic"

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
// streaming accumulator, in repetition order; chunk accumulators merge
// in chunk order. Chunk boundaries depend only on the repetition
// count, which is what makes every summary bit-identical at every
// worker count.
const estimateChunk = 256

// Chunk boundaries must stay lane-group aligned so a 64-rep lane
// group never spans two accumulator chunks (only the final, possibly
// partial group ends mid-width). Compile-time assert.
var _ [estimateChunk % LaneWidth]struct{} = [0]struct{}{}

// windowChunks is how many chunks of makespans RunChunks holds at
// once: 4,096 repetitions, 32 KiB, so a call of up to 4,096
// repetitions runs as one window.
const windowChunks = 16

// scalarUnit is the work unit of the walks that run one repetition at
// a time: eight makespans fill one 64-byte line of the window, so two
// workers rarely write the same line. The lane walk's unit is one lane
// group, LaneWidth.
const scalarUnit = 8

// ChunkFunc runs repetitions [lo, hi) on one worker's engine, writes
// repetition r's makespan to makespans[r-lo], and returns how many of
// them hit the step cap.
type ChunkFunc func(lo, hi int, makespans []float64) (incomplete int)

// RunChunks is the estimators' runner. Workers goroutines (each builds
// its engine once with newWorker, on its own goroutine; one worker
// runs on the calling goroutine) claim units of unit repetitions —
// unit must divide the 256-repetition chunk — and record each makespan
// by repetition. Every chunk is then summed in repetition order and
// the chunk sums merge in chunk order, so the summary is bit-identical
// at every worker count and unit provided a ChunkFunc's output depends
// only on its repetition range. It returns the summary, the summed
// incomplete count, and the effective worker count, workers clamped to
// [1, ⌈reps/unit⌉].
func RunChunks(reps, workers, unit int, newWorker func() ChunkFunc) (stats.Summary, int, int) {
	var m chunkMerge
	incomplete, workers := runWindows(reps, workers, unit, newWorker, m.fold)
	return m.total.Summary(), incomplete, workers
}

// chunkMerge is the estimators' fold: each chunk of a window is summed
// into its own accumulator in repetition order, and chunk accumulators
// merge into total in chunk order. Windows start on chunk boundaries.
type chunkMerge struct{ total stats.Accumulator }

func (m *chunkMerge) fold(makespans []float64) {
	for lo := 0; lo < len(makespans); lo += estimateChunk {
		var acc stats.Accumulator
		for _, x := range makespans[lo:min(lo+estimateChunk, len(makespans))] {
			acc.Add(x)
		}
		m.total.Merge(acc)
	}
}

// runWindows runs reps repetitions as RunChunks does, one window of
// windowChunks chunks at a time: workers claim the window's units
// through an atomic counter, and once every unit is done fold receives
// the window's makespans in repetition order. The buffer is reused
// across windows, so memory stays one window whatever reps is. It
// returns the summed incomplete count and the effective worker count.
func runWindows(reps, workers, unit int, newWorker func() ChunkFunc, fold func(makespans []float64)) (int, int) {
	if unit <= 0 || estimateChunk%unit != 0 {
		panic("sim: the work unit must divide the chunk size")
	}
	workers = max(min(workers, (reps+unit-1)/unit), 1)
	buf := make([]float64, min(reps, windowChunks*estimateChunk))
	// lo and hi bound the current window. The calling goroutine writes
	// them, and resets next, only while no worker is inside work.
	var lo, hi int
	var next, incomplete atomic.Int64
	work := func(run ChunkFunc) {
		inc := 0
		for {
			u := lo + int(next.Add(1)-1)*unit
			if u >= hi {
				break
			}
			end := min(u+unit, hi)
			inc += run(u, end, buf[u-lo:end-lo])
		}
		incomplete.Add(int64(inc))
	}
	// Each window hands the other workers one token apiece and waits
	// for as many done signals, so both channels hold at most one
	// window's workers-1 sends.
	start := make(chan struct{}, workers-1)
	done := make(chan struct{}, workers-1)
	var exited sync.WaitGroup
	for g := 1; g < workers; g++ {
		exited.Add(1)
		go func() {
			defer exited.Done()
			run := newWorker()
			for range start {
				work(run)
				done <- struct{}{}
			}
		}()
	}
	run := newWorker()
	for lo = 0; lo < reps; lo = hi {
		hi = min(lo+len(buf), reps)
		next.Store(0)
		for g := 1; g < workers; g++ {
			start <- struct{}{}
		}
		work(run)
		for g := 1; g < workers; g++ {
			<-done
		}
		fold(buf[:hi-lo])
	}
	close(start)
	exited.Wait()
	return int(incomplete.Load()), workers
}

// walk runs reps repetitions on the selected engine across workers and
// hands fold each window's makespans in repetition order. Repetition r
// draws from stream (seed, r) — or, under the lane engine, from the
// group-g lane streams of the remap documented in lane.go — so what
// fold sees is bit-identical for every worker count.
func (e *estimator) walk(reps, maxSteps int, seed int64, workers int, fold func(makespans []float64)) (int, EngineUsed) {
	var mu sync.Mutex
	var memos []*adaptRunner
	unit := scalarUnit
	if e.lane {
		unit = LaneWidth
	}
	incomplete, workers := runWindows(reps, workers, unit, func() ChunkFunc {
		it := e.newIter(seed, false)
		if a, ok := it.scalar.(*adaptRunner); ok {
			mu.Lock()
			memos = append(memos, a)
			mu.Unlock()
		}
		return func(lo, hi int, makespans []float64) (inc int) {
			k := 0
			it.run(lo, hi, maxSteps, func(makespan int, completed bool, _ []float64) {
				makespans[k] = float64(makespan)
				k++
				if !completed {
					inc++
				}
			})
			return inc
		}
	}, fold)
	eng := e.engine
	eng.Workers = workers
	if memos != nil {
		eng.States = memoizedStates(memos, e.budget)
	}
	return incomplete, eng
}

// run executes the chunked estimation on the selected engine.
func (e *estimator) run(reps, maxSteps int, seed int64, workers int) (stats.Summary, int, EngineUsed) {
	var m chunkMerge
	incomplete, eng := e.walk(reps, maxSteps, seed, workers, m.fold)
	return m.total.Summary(), incomplete, eng
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
