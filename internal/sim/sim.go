package sim

import (
	"math/bits"
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

// repRunner is one worker's scalar engine: run executes a repetition.
type repRunner interface {
	run(maxSteps int, rng Rand) (makespan int, completed bool)
}

// run adapts Runner to repRunner.
func (r *Runner) run(maxSteps int, rng Rand) (int, bool) { return r.Run(maxSteps, rng) }

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
	// EngineDynamic is the generic step engine following a scenario's
	// timeline (NewTimelineRunner, driven by internal/dyn): arrivals,
	// outages and regime modulation change the instance mid-run, which
	// the compiled engines' immutable tables cannot express. Scenarios
	// without events delegate back to the static engines and report
	// those names.
	EngineDynamic = "dynamic-step"
)

// EngineUsed reports which engine an estimation call actually ran —
// the record satellite harnesses (grid rows, BENCH_sim.json) persist
// so a silent fallback to the slow path is visible in the output, not
// just in wall-clock time.
type EngineUsed struct {
	// Engine is EngineCompiled (event-wise oblivious), its bit-parallel
	// lane form EngineLane, the EngineCompiledAdaptive memo walk,
	// EngineGeneric, or EngineDynamic for a scenario walk with events.
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

// compilable returns the schedule the compiled oblivious engine runs
// for pol on in, with the topological order its compile walks: an
// oblivious schedule with a non-empty prefix, no outcome observation,
// and an acyclic instance. It returns nil otherwise.
func compilable(in *model.Instance, pol sched.Policy) (*sched.Oblivious, []int) {
	o, ok := pol.(*sched.Oblivious)
	if !ok || o.Len() == 0 || !Parallelizable(pol) {
		return nil, nil
	}
	order, err := in.Prec.TopoOrder()
	if err != nil {
		return nil, nil
	}
	return o, order
}

// callBudget is the adaptive state budget of one call of reps
// repetitions: the most states one worker memoizes. A state costs
// about one policy call to memoize, the same as one step of the
// generic engine, so a memo bigger than 64× the repetitions could
// never amortize; states past the budget run from a scratch digest.
func callBudget(reps int) int { return min(DefaultAdaptiveCompileBudget, 64*reps) }

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
	bufp := windowPool.Get().(*[]float64)
	buf := reuse(*bufp, min(reps, windowChunks*estimateChunk))
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
	*bufp = buf
	windowPool.Put(bufp)
	return int(incomplete.Load()), workers
}

// windowPool holds runWindows' makespan windows between walks. Every
// unit writes each makespan of its range, so a reused window is not
// cleared.
var windowPool = sync.Pool{New: func() any { return new([]float64) }}

// walk runs reps repetitions on the selected engine across workers and
// hands fold each window's makespans in repetition order. Repetition r
// draws from stream (seed, r) — or, under the lane engine, from the
// group-g lane streams of the remap documented in lane.go — so what
// fold sees is bit-identical for every worker count. Once every worker
// has joined, their pooled buffers go back.
func (e *estimator) walk(reps, maxSteps int, seed int64, workers int, fold func(makespans []float64)) (int, EngineUsed) {
	var mu sync.Mutex
	var iters []*repIter
	unit := scalarUnit
	if e.lane {
		unit = LaneWidth
	}
	incomplete, workers := runWindows(reps, workers, unit, func() ChunkFunc {
		it := e.newIter(seed)
		mu.Lock()
		iters = append(iters, it)
		mu.Unlock()
		return func(lo, hi int, makespans []float64) int {
			return it.run(lo, hi, maxSteps, makespans)
		}
	}, fold)
	var memos []*adaptRunner
	for _, it := range iters {
		if a, ok := it.scalar.(*adaptRunner); ok {
			memos = append(memos, a)
		}
		it.release()
	}
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
// order. Both the chunked and the quantile estimator read their
// repetitions through this loop, so they see the same sample for the
// same (engine, seed, reps).
type repIter struct {
	scalar repRunner
	lanes  laneWorker
	seed   int64
	rng    Stream
}

// newIter builds one worker's iterator.
func (e *estimator) newIter(seed int64) *repIter {
	it := &repIter{seed: seed}
	switch {
	case e.lane:
		it.lanes = e.newLaneWorker(seed)
	case e.compiled != nil:
		it.scalar = e.compiled.newRunner()
	case e.memo != nil:
		it.scalar = newAdaptRunner(e.in, e.memo, e.budget)
	default:
		it.scalar = NewRunner(e.in, e.pol)
	}
	return it
}

// release puts the iterator's pooled buffers back. The iterator must
// not run again.
func (it *repIter) release() {
	if it.lanes != nil {
		it.lanes.release()
	}
}

// run executes repetitions [lo, hi) — lo a multiple of LaneWidth on
// the lane walk — writes repetition r's makespan to makespans[r-lo],
// and returns how many of them hit the step cap.
func (it *repIter) run(lo, hi, maxSteps int, makespans []float64) (incomplete int) {
	if it.lanes == nil {
		for r := lo; r < hi; r++ {
			it.rng.Reseed(it.seed, int64(r))
			makespan, completed := it.scalar.run(maxSteps, &it.rng)
			makespans[r-lo] = float64(makespan)
			if !completed {
				incomplete++
			}
		}
		return incomplete
	}
	for g := lo; g < hi; g += LaneWidth {
		cnt := min(hi-g, LaneWidth)
		mk, completed := it.lanes.runGroup(int64(g/LaneWidth), cnt, maxSteps)
		for l, m := range mk {
			makespans[g-lo+l] = float64(m)
		}
		incomplete += cnt - bits.OnesCount64(completed)
	}
	return incomplete
}

// EstimateInfoLanes is the sequential EstimateParallelInfo with the
// lane decision passed per call: lanes=true is EstimateParallelInfo's
// dispatch, lanes=false runs the scalar walks at every repetition
// count — what a lane-vs-scalar timing needs where dispatch would pick
// lanes. The two forms sample different draws of the same distribution
// whenever lanes would run.
func EstimateInfoLanes(in *model.Instance, pol sched.Policy, reps, maxSteps int, seed int64, lanes bool) (stats.Summary, int, EngineUsed) {
	mode := lanesAuto
	if !lanes {
		mode = lanesOff
	}
	return Prepare(in, pol).estimate(reps, maxSteps, seed, 1, mode)
}

// massSeedSalt decorrelates MassWithinHorizon's streams from
// EstimateParallelInfo's when both are called with the same seed.
const massSeedSalt = 0x6D617373 // "mass"

// MassWithinHorizon runs reps executions of pol truncated at horizon
// steps and returns, for job j, the fraction of runs in which j
// accumulated mass at least threshold. Used to validate Theorem 2.2
// empirically. It runs the generic step engine, the only engine that
// accumulates mass, sequentially: repetition r draws from stream
// (seed^massSeedSalt, r).
func MassWithinHorizon(in *model.Instance, pol sched.Policy, horizon, reps int, threshold float64, seed int64) []float64 {
	counts := make([]float64, in.N)
	r := NewRunner(in, pol)
	var rng Stream
	for rep := 0; rep < reps; rep++ {
		rng.Reseed(seed^massSeedSalt, int64(rep))
		r.Run(horizon, &rng)
		for j, m := range r.Mass() {
			if m >= threshold-1e-12 {
				counts[j]++
			}
		}
	}
	for j := range counts {
		counts[j] /= float64(reps)
	}
	return counts
}
