package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"suu/internal/core"
	"suu/internal/dag"
	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/sim"
	"suu/internal/solve"
	"suu/internal/stats"
)

// engines are the static simulation engines sim.EngineUsed names.
var engines = []string{
	sim.EngineGeneric, sim.EngineCompiled, sim.EngineLane,
	sim.EngineCompiledAdaptive, sim.EngineLaneAdaptive,
}

// serveClasses are serve-mix's request classes, one handler span each.
var serveClasses = []string{
	"hot_solve", "hot_estimate", "hot_schedule", "instance_post",
	"cold_solve", "cold_estimate", "revisit_solve", "ci_estimate", "optimal_solve",
}

// serveCaches are the suu-serve caches StatusSnapshot reports.
var serveCaches = []string{"results", "engines", "bases", "instances"}

// buildSolvers are the registry solvers the library workloads build.
var buildSolvers = []string{"lp-oblivious", "chains", "forest", "adaptive"}

// perLayerDefs is the traced run's metric list, in BENCHMARK.json
// order. Every *_ms / *_us / *_ns metric is the mean self time per call
// of its span; a layer a workload never calls reads 0.
var perLayerDefs = func() []metricDef {
	d := []metricDef{
		{"dag.cover_us", "us"},
		{"lp.solve_ms", "ms"},
		{"lp.pivots", "count"},
		{"lp.rows", "count"},
		{"lp.nnz", "count"},
		{"core.round_ms", "ms"},
		{"core.msm_us", "us"},
		{"core.msm_masked_us", "us"},
	}
	for _, id := range buildSolvers {
		d = append(d, metricDef{"solve.build_ms." + id, "ms"})
	}
	d = append(d,
		metricDef{"sim.prepare_ms", "ms"},
		metricDef{"sim.compile_fallback_share", "ratio"},
		metricDef{"sim.walk_ms", "ms"},
	)
	for _, e := range engines {
		d = append(d, metricDef{"sim.ns_per_step." + e, "ns"})
	}
	d = append(d,
		metricDef{"sim.allocs_per_rep", "count"},
		metricDef{"sim.parallel_speedup", "ratio"},
	)
	for _, e := range engines {
		d = append(d, metricDef{"sim.engine_share." + e, "ratio"})
	}
	d = append(d,
		metricDef{"sim.adaptive_states", "count"},
		metricDef{"dyn.estimate_ms.oblivious", "ms"},
		metricDef{"dyn.estimate_ms.adaptive", "ms"},
		metricDef{"dyn.estimate_ms.rolling", "ms"},
		metricDef{"dyn.rolling_init_ms", "ms"},
		metricDef{"dyn.ns_per_step", "ns"},
		metricDef{"opt.vi_ms", "ms"},
		metricDef{"opt.states", "count"},
		metricDef{"opt.transitions", "count"},
		metricDef{"model.decode_us", "us"},
		metricDef{"serve.fingerprint_us", "us"},
		metricDef{"serve.encode_us", "us"},
	)
	for _, c := range serveClasses {
		d = append(d, metricDef{"serve.handler_us." + c, "us"})
	}
	for _, c := range serveCaches {
		for _, k := range []string{"hits", "misses", "evictions", "coalesced"} {
			d = append(d, metricDef{"serve." + c + "." + k, "count/op"})
		}
	}
	d = append(d,
		metricDef{"serve.hit_rate", "ratio"},
		metricDef{"serve.warm_basis_share", "ratio"},
		metricDef{"serve.engine_cached_share", "ratio"},
		metricDef{"serve.ci_rounds", "count"},
		metricDef{"trace.coverage", "ratio"},
		metricDef{"trace.ops_per_s", "1/s"},
		metricDef{"trace.overhead", "ratio"},
	)
	return d
}()

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func counterDelta(before, after map[string]float64) map[string]float64 {
	if after == nil {
		return nil
	}
	out := make(map[string]float64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// layerMetrics derives every per-layer metric from the traced run's
// spans and counters, the program-side counter deltas (serve caches),
// and the op rates of the untraced reference and the traced phase.
func layerMetrics(s *traceSummary, prog map[string]float64, refRate, tracedRate float64) map[string]float64 {
	c := s.counts
	m := map[string]float64{
		"dag.cover_us":               s.mean("dag.cover", 1e3),
		"lp.solve_ms":                s.mean("lp.solve", 1e6),
		"lp.pivots":                  ratio(c["lp.pivots"], c["lp.builds"]),
		"lp.rows":                    ratio(c["lp.rows"], c["lp.builds"]),
		"lp.nnz":                     ratio(c["lp.nnz"], c["lp.builds"]),
		"core.round_ms":              s.mean("core.round", 1e6),
		"core.msm_us":                s.mean("core.msm", 1e3),
		"core.msm_masked_us":         s.mean("core.msm_masked", 1e3),
		"sim.prepare_ms":             s.mean("sim.prepare", 1e6),
		"sim.compile_fallback_share": ratio(c["sim.compile_fallbacks"], c["sim.memo_prepares"]),
		"sim.walk_ms":                s.mean("sim.walk", 1e6),
		"sim.allocs_per_rep":         ratio(c["sim.probe_allocs"], c["sim.probe_reps"]),
		"sim.parallel_speedup":       ratio(c["sim.walk1_ns"], c["sim.walk2_ns"]),
		"sim.adaptive_states":        ratio(c["sim.adaptive_states"], c["sim.adaptive_walks"]),
		"dyn.estimate_ms.oblivious":  s.mean("dyn.estimate.oblivious", 1e6),
		"dyn.estimate_ms.adaptive":   s.mean("dyn.estimate.adaptive", 1e6),
		"dyn.estimate_ms.rolling":    s.mean("dyn.estimate.rolling", 1e6),
		"dyn.rolling_init_ms":        s.mean("dyn.rolling_init", 1e6),
		"dyn.ns_per_step":            ratio(c["dyn.walk_ns"], c["dyn.steps"]),
		"opt.vi_ms":                  s.mean("opt.vi", 1e6),
		"opt.states":                 ratio(c["opt.states"], c["opt.solves"]),
		"opt.transitions":            ratio(c["opt.transitions"], c["opt.solves"]),
		"model.decode_us":            s.mean("model.decode", 1e3),
		"serve.fingerprint_us":       s.mean("serve.fingerprint", 1e3),
		"serve.encode_us":            s.mean("serve.encode", 1e3),
		"serve.hit_rate":             ratio(prog["results.hits"], prog["results.hits"]+prog["results.misses"]),
		"serve.warm_basis_share":     ratio(c["serve.warm_basis"], c["serve.cold_solves"]),
		"serve.engine_cached_share":  ratio(c["serve.engine_cached"], c["serve.cold_estimates"]),
		"serve.ci_rounds":            ratio(c["serve.ci_rounds"], c["serve.ci_estimates"]),
		"trace.coverage":             s.coverage(),
		"trace.ops_per_s":            tracedRate,
		"trace.overhead":             ratio(refRate-tracedRate, refRate),
	}
	for _, id := range buildSolvers {
		m["solve.build_ms."+id] = s.mean("solve.build."+id, 1e6)
	}
	var walks float64
	for _, e := range engines {
		walks += c["sim.walks."+e]
	}
	for _, e := range engines {
		m["sim.ns_per_step."+e] = ratio(c["sim.walk_ns."+e], c["sim.steps."+e])
		m["sim.engine_share."+e] = ratio(c["sim.walks."+e], walks)
	}
	for _, cl := range serveClasses {
		m["serve.handler_us."+cl] = s.mean("serve.handler."+cl, 1e3)
	}
	for _, cache := range serveCaches {
		for _, k := range []string{"hits", "misses", "evictions", "coalesced"} {
			m["serve."+cache+"."+k] = ratio(prog[cache+"."+k], float64(s.ops))
		}
	}
	return m
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// checkEstimate is the output check every estimate passes: every
// repetition ran and finished, and none beat the trivial lower bound
// max(⌈n/m⌉, depth). These hold for each repetition, so they survive
// any change that redraws the Monte Carlo sample.
func checkEstimate(what string, runs, incomplete, reps int, min, lower float64) error {
	switch {
	case runs != reps:
		return fmt.Errorf("%s: %d runs, want %d", what, runs, reps)
	case incomplete != 0:
		return fmt.Errorf("%s: %d incomplete runs", what, incomplete)
	case min < lower:
		return fmt.Errorf("%s: min makespan %v below lower bound %v", what, min, lower)
	}
	return nil
}

// trivialLower is max(⌈n/m⌉, depth).
func trivialLower(in *model.Instance) float64 {
	lb := (in.N + in.M - 1) / in.M
	if d := in.Prec.Depth(); d > lb {
		lb = d
	}
	return float64(lb)
}

// layeredBuild is the traced form of solve.Auto: validate, classify,
// then build with the strongest applicable solver, one span each.
func layeredBuild(in *model.Instance, par core.Params, rec *recorder) (*solve.Result, error) {
	rec.begin("model.validate")
	err := in.Validate()
	rec.end()
	if err != nil {
		return nil, err
	}
	rec.begin("dag.classify")
	sol, err := solve.Strongest(in.Prec.Classify())
	rec.end()
	if err != nil {
		return nil, err
	}
	return layeredBuildWith(sol, in, par, rec)
}

// layeredBuildWith builds with sol in a solve.build.<id> span and
// records the LP counters of the result.
func layeredBuildWith(sol solve.Solver, in *model.Instance, par core.Params, rec *recorder) (*solve.Result, error) {
	rec.begin("solve.build." + sol.ID)
	res, err := sol.Build(in, par)
	rec.end()
	if err != nil {
		return nil, fmt.Errorf("%s build: %w", sol.ID, err)
	}
	noteLP(res, rec)
	return res, nil
}

// noteLP records the exact LP effort of an LP-backed build.
func noteLP(res *solve.Result, rec *recorder) {
	if res.LPRows > 0 {
		rec.add("lp.builds", 1)
		rec.add("lp.pivots", float64(res.LPPivots))
		rec.add("lp.rows", float64(res.LPRows))
		rec.add("lp.nnz", float64(res.LPNnz))
	}
}

// layeredEstimate is the traced form of Schedule.EstimateMakespan:
// sim.Prepare then Prepared.EstimateParallelInfo at two workers, one
// span each, with engine counters. It returns the prepared engine and
// the walk time for probeWalk1, which the caller runs after the op's
// clock stops.
func layeredEstimate(in *model.Instance, pol sched.Policy, reps int, seed int64, rec *recorder) (stats.Summary, int, *sim.Prepared, time.Duration) {
	rec.begin("sim.prepare")
	p := sim.Prepare(in, pol)
	rec.end()
	if _, memo := pol.(sched.Memoizable); memo && rec != nil {
		rec.add("sim.memo_prepares", 1)
		if e, _, _ := p.Engine(); e == "" {
			rec.add("sim.compile_fallbacks", 1)
		}
	}
	rec.begin("sim.walk")
	start := time.Now()
	sum, inc, eng := p.EstimateParallelInfo(reps, maxSteps, seed, 2)
	walk := time.Since(start)
	rec.end()
	if rec != nil {
		rec.add("sim.walks."+eng.Engine, 1)
		rec.add("sim.walk_ns."+eng.Engine, float64(walk.Nanoseconds()))
		rec.add("sim.steps."+eng.Engine, sum.Mean*float64(sum.N))
		if eng.States > 0 {
			rec.add("sim.adaptive_walks", 1)
			rec.add("sim.adaptive_states", float64(eng.States))
		}
	}
	return sum, inc, p, walk
}

// probeWalk1 re-walks at one worker, for the parallel speed-up and the
// allocations per repetition.
func probeWalk1(p *sim.Prepared, reps int, seed int64, walk2 time.Duration, rec *recorder) {
	var before, after runtime.MemStats
	rec.beginProbe("sim.walk_1worker")
	runtime.ReadMemStats(&before)
	start := time.Now()
	p.EstimateParallelInfo(reps, maxSteps, seed, 1)
	walk1 := time.Since(start)
	runtime.ReadMemStats(&after)
	rec.end()
	rec.add("sim.walk1_ns", float64(walk1.Nanoseconds()))
	rec.add("sim.walk2_ns", float64(walk2.Nanoseconds()))
	rec.add("sim.probe_allocs", float64(after.Mallocs-before.Mallocs))
	rec.add("sim.probe_reps", float64(reps))
}

// maxSteps caps every simulated execution, as the public API's default.
const maxSteps = 1_000_000

// probeLP re-solves the op's LP outside solve.Build, where the build
// hides it: the chain cover, (LP2) for independent jobs or (LP1) over
// the minimum chain cover, then the rounding of its solution.
func probeLP(in *model.Instance, rec *recorder) error {
	rec.beginProbe("dag.cover")
	class := in.Prec.Classify()
	cover := in.Prec.MinChainCover()
	rec.end()
	const target = 0.5
	var fs *core.FracSolution
	var err error
	rec.beginProbe("lp.solve")
	if class == dag.ClassIndependent {
		jobs := make([]int, in.N)
		for j := range jobs {
			jobs[j] = j
		}
		fs, err = core.SolveLP2(in, jobs, target)
	} else {
		fs, err = core.SolveLP1(in, cover, target)
	}
	rec.end()
	if err != nil {
		return fmt.Errorf("lp probe: %w", err)
	}
	rec.beginProbe("core.round")
	_, err = core.RoundLP(in, fs, target)
	rec.end()
	if err != nil {
		return fmt.Errorf("rounding probe: %w", err)
	}
	return nil
}

// msmProbes is how many active sets probeMSM samples per op.
const msmProbes = 4

// probeMSM times MSM-ALG and its machine-masked form on active sets
// sampled from the op's instance: each job active with probability
// 1/2, each machine up with probability 3/4.
func probeMSM(in *model.Instance, seed int64, rec *recorder) {
	rng := rand.New(rand.NewSource(seed))
	active := make([]bool, in.N)
	up := make([]bool, in.M)
	for t := 0; t < msmProbes; t++ {
		for j := range active {
			active[j] = rng.Intn(2) == 0
		}
		for i := range up {
			up[i] = rng.Intn(4) != 0
		}
		rec.beginProbe("core.msm")
		core.MSMAlg(in, active)
		rec.end()
		rec.beginProbe("core.msm_masked")
		core.MSMAlgMasked(in, active, up)
		rec.end()
	}
}
