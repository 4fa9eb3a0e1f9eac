package sim

import (
	"time"

	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/stats"
)

// Prepared is a reusable estimation context for one (instance,
// policy) pair: the compiled oblivious per-job occurrence lists, built
// once and shared across estimation calls, or the engine decision for
// a stationary policy. The per-call estimators prepare on every
// invocation; a cache that keys Prepared values by instance
// fingerprint (internal/serve) pays the oblivious compile once and
// serves every later request as a table walk. The compiled adaptive
// engine builds nothing up front: every call's workers memoize the
// states they visit (see adaptive.go), cached context or not.
//
// A Prepared value is immutable after Prepare and safe for concurrent
// use: every estimation call builds its own per-call runner state on
// top of the shared tables, exactly as the per-call estimators fan
// workers out over one compiled engine.
//
// Results are bit-identical to the cold path: the one-shot estimators
// are themselves a Prepare followed by the per-call selection
// EstimateParallelInfo applies (see Prepared.estimator), so a cached
// engine can change wall-clock only, never a digit. The parity is
// pinned by TestPreparedBitIdenticalToColdPath.
type Prepared struct {
	in       *model.Instance
	pol      sched.Policy
	compiled *compiledOblivious
	memo     sched.Memoizable
	buildMS  float64
}

// Prepare compiles the fastest engine the policy admits and returns
// the reusable context. Oblivious schedules compile their prefix;
// stationary policies are only marked for the compiled adaptive
// engine, which memoizes per call. Prepare never fails: policies no
// engine accepts (observers, cyclic instances) yield a context whose
// calls run the generic step engine, which is still reusable — the
// instance's flat backing and parallel-dispatch decisions are
// resolved once.
func Prepare(in *model.Instance, pol sched.Policy) *Prepared {
	p := &Prepared{in: in, pol: pol}
	// Resolve the flat backing once, on this goroutine: workers read it
	// concurrently via newRunState, and Instance.Flat rebuilds lazily
	// when the rows were replaced wholesale.
	in.Flat()
	start := time.Now()
	if UsesCompiledEngine(in, pol) {
		p.compiled = compileOblivious(in, pol.(*sched.Oblivious))
	} else if mpol, ok := memoizable(in, pol); ok {
		p.memo = mpol
	}
	p.buildMS = float64(time.Since(start).Nanoseconds()) / 1e6
	return p
}

// Engine reports which compiled engine the calls will run ("" for the
// generic step engine), a state count, and the build wall-clock —
// what a cache exposes in its status output. The state count is 0:
// the compiled adaptive engine memoizes per call and reports its
// states in EngineUsed. The per-call EngineUsed may still differ
// (lane upgrades); this is the build-time record.
func (p *Prepared) Engine() (engine string, states int, buildMS float64) {
	switch {
	case p.compiled != nil:
		return EngineCompiled, 0, p.buildMS
	case p.memo != nil:
		return EngineCompiledAdaptive, 0, p.buildMS
	}
	return "", 0, p.buildMS
}

// SizeBytes estimates the resident size of the compiled tables, for
// cache accounting. Contexts without a table (generic, and compiled
// adaptive, whose memo lives only for a call) are charged a nominal
// footprint so cache math never divides by zero.
func (p *Prepared) SizeBytes() int64 {
	const word = 8
	if c := p.compiled; c != nil {
		return int64(len(c.steps))*(4+word+word) + int64(len(c.offs)+len(c.topo))*4 + 256
	}
	return 256
}

// estimator is the per-call engine selection, the one dispatch every
// estimator runs: the compiled oblivious walk whenever it exists, in
// its lane form when the lane mode picks it for reps; the compiled
// adaptive memo, under the call's state budget (callBudget), for
// stationary policies; the generic step engine otherwise.
func (p *Prepared) estimator(reps int, lanes laneMode) *estimator {
	e := &estimator{in: p.in, pol: p.pol, engine: EngineUsed{Engine: EngineGeneric}}
	switch {
	case p.compiled != nil:
		e.compiled = p.compiled
		e.engine.Engine = EngineCompiled
		if lanes.use(reps) {
			e.lane, e.oracle = true, lanes == lanesOracle
			e.engine.Engine, e.engine.Lanes = EngineLane, LaneWidth
		}
	case p.memo != nil:
		e.memo, e.budget = p.memo, callBudget(reps)
		e.engine.Engine = EngineCompiledAdaptive
	}
	return e
}

// EstimateInfo is sim.EstimateInfo on the prepared engines: reps
// repetitions, sequential, summary plus the EngineUsed record.
func (p *Prepared) EstimateInfo(reps, maxSteps int, seed int64) (stats.Summary, int, EngineUsed) {
	return p.EstimateParallelInfo(reps, maxSteps, seed, 1)
}

// EstimateParallelInfo is sim.EstimateParallelInfo on the prepared
// engines. Repetition streams, chunk merging, and the engine dispatch
// match the one-shot estimators call for call, so the summary is
// bit-identical to a cold estimate of the same (reps, maxSteps, seed)
// at any concurrency. concurrency <= 0 selects GOMAXPROCS; observer
// policies degrade to sequential exactly as EstimateParallel does.
func (p *Prepared) EstimateParallelInfo(reps, maxSteps int, seed int64, concurrency int) (stats.Summary, int, EngineUsed) {
	if reps <= 0 {
		panic("sim: reps must be positive")
	}
	return p.estimator(reps, lanesAuto).run(reps, maxSteps, seed, effectiveWorkers(p.pol, concurrency))
}
