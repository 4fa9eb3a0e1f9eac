package sim

import (
	"time"

	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/stats"
)

// Prepared is a reusable estimation context for one (instance,
// policy) pair: the compiled oblivious per-job run tables, built
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
// Results are bit-identical to the cold path: every one-shot
// estimator is Prepare followed by the per-call selection
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
	if o, order := compilable(in, pol); o != nil {
		p.compiled = compileOblivious(in, o, order)
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

// SizeBytes is the charge a context makes against a cache's byte
// budget (internal/serve's engine cache). It is a charge, not a
// resident size: a compiled context is charged 20 bytes per
// occurrence (a step, a success probability and a mass, what a table
// of one entry per occurrence held), 4 per offs and topo entry, and
// 256 more, while its tables keep one entry per (job, run), about σ
// times fewer. Contexts without a table (generic, and compiled
// adaptive, whose memo lives only for a call) are charged a nominal
// footprint so cache math never divides by zero.
func (p *Prepared) SizeBytes() int64 {
	const word = 8
	if c := p.compiled; c != nil {
		return int64(c.occurrences)*(4+word+word) + int64(len(c.offs)+len(c.topo))*4 + 256
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

// EstimateParallelInfo runs reps repetitions on the prepared engines,
// fanned out as sim.EstimateParallelInfo documents, and returns their
// summary, the number that hit the step cap, and the EngineUsed
// record. sim.EstimateParallelInfo is this call on a fresh Prepare, so
// a cached context returns the bits a cold estimate of the same
// (reps, maxSteps, seed) returns, at any concurrency. concurrency <= 0
// selects GOMAXPROCS; observer policies run sequentially.
func (p *Prepared) EstimateParallelInfo(reps, maxSteps int, seed int64, concurrency int) (stats.Summary, int, EngineUsed) {
	return p.estimate(reps, maxSteps, seed, effectiveWorkers(p.pol, concurrency), lanesAuto)
}

// estimate is the chunked run of reps repetitions on workers, on the
// engine the lane mode selects for reps: the one path behind every
// summary the package returns.
func (p *Prepared) estimate(reps, maxSteps int, seed int64, workers int, lanes laneMode) (stats.Summary, int, EngineUsed) {
	if reps <= 0 {
		panic("sim: reps must be positive")
	}
	return p.estimator(reps, lanes).run(reps, maxSteps, seed, workers)
}
