package exp

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"suu/internal/core"
	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/sim"
	"suu/internal/solve"
	"suu/internal/workload"
)

// SimBench is one row of BENCH_sim.json: the simulation engine's
// measured throughput on one workload family. The CI bench-smoke job
// uploads the file as an artifact so the perf trajectory accumulates
// across PRs; every future engine change is judged against these
// numbers.
type SimBench struct {
	// Family names the workload (precedence shape and size).
	Family   string `json:"family"`
	Jobs     int    `json:"jobs"`
	Machines int    `json:"machines"`
	// Policy names the schedule construction simulated.
	Policy string `json:"policy"`
	// Engine is "compiled" for the event-wise oblivious fast path,
	// "generic" for the step engine.
	Engine string `json:"engine"`
	Reps   int    `json:"reps"`
	// RepsPerSec is end-to-end estimator throughput (includes prefix
	// compilation, amortized over Reps).
	RepsPerSec float64 `json:"reps_per_sec"`
	// NsPerStep normalizes wall-clock by simulated machine-steps.
	NsPerStep float64 `json:"ns_per_step"`
	// AllocsPerRep is the steady-state allocation count per repetition
	// (fixed per-call costs cancelled out); 0 is the engine contract.
	AllocsPerRep float64 `json:"allocs_per_rep"`
	MeanMakespan float64 `json:"mean_makespan"`
	// P50 and P99 are makespan quantiles from a single estimation pass.
	P50 float64 `json:"p50_makespan"`
	P99 float64 `json:"p99_makespan"`
}

// SolverBuildBench is one row of the per-solver construction-cost
// section: how long the registry solver takes to build a schedule on
// its reference workload (LP solves dominate the LP-based pipelines).
// For LP-backed solvers the dense tableau oracle is timed side by
// side, so every BENCH_sim.json records the sparse-vs-dense speedup
// on the machine that produced it.
type SolverBuildBench struct {
	Solver   string `json:"solver"`
	Theorem  string `json:"theorem,omitempty"`
	Family   string `json:"family"`
	Jobs     int    `json:"jobs"`
	Machines int    `json:"machines"`
	// BuildMS is the construction wall-clock in milliseconds, the
	// median of the sampled runs.
	BuildMS   float64 `json:"build_ms"`
	PrefixLen int     `json:"prefix_len,omitempty"`
	// LPPivots and the LP dimensions track simplex effort, not just
	// wall-clock (zero for non-LP solvers).
	LPPivots int `json:"lp_pivots,omitempty"`
	LPRows   int `json:"lp_rows,omitempty"`
	LPCols   int `json:"lp_cols,omitempty"`
	LPNnz    int `json:"lp_nnz,omitempty"`
	// DenseBuildMS is the same construction forced through the dense
	// LP oracle, timed in pairs with BuildMS; SpeedupVsDense is the
	// median per-pair ratio of the dense time over the sparse.
	DenseBuildMS   float64 `json:"dense_build_ms,omitempty"`
	SpeedupVsDense float64 `json:"speedup_vs_dense,omitempty"`
	Error          string  `json:"error,omitempty"`
}

// GridHarnessBench records the scenario-grid harness's throughput:
// cells evaluated per second with the full worker pool vs the
// sequential harness, and the resulting speedup on this runner.
type GridHarnessBench struct {
	Cells          int     `json:"cells"`
	Workers        int     `json:"workers"`
	CellsPerSec    float64 `json:"cells_per_sec"`
	SeqCellsPerSec float64 `json:"seq_cells_per_sec"`
	Speedup        float64 `json:"speedup"`
}

// ServeBench records the serving layer's load-harness results: a
// storm of concurrent clients driving a mixed repeat/fresh workload
// through the full handler stack, with cache-hit latency measured
// against cold-build latency. The type lives here (not in
// internal/serve) so the BENCH_sim.json document stays a single
// package's contract; internal/serve fills it and cmd/suu-bench wires
// it in.
type ServeBench struct {
	// Clients is the concurrent client count; Requests the total
	// requests they issued (mixed solves and estimates, repeat and
	// fresh).
	Clients  int `json:"clients"`
	Requests int `json:"requests"`
	// HotInstances is the pre-warmed repeat set; FreshInstances the
	// distinct never-before-seen instances solved cold mid-storm.
	HotInstances   int     `json:"hot_instances"`
	FreshInstances int     `json:"fresh_instances"`
	WallMS         float64 `json:"wall_ms"`
	RequestsPerSec float64 `json:"requests_per_sec"`
	// ColdP50MS/ColdP99MS are cold-build solve latencies (fresh
	// instances); HitP50MS/HitP99MS are result-cache-hit latencies.
	ColdP50MS float64 `json:"cold_p50_ms"`
	ColdP99MS float64 `json:"cold_p99_ms"`
	HitP50MS  float64 `json:"hit_p50_ms"`
	HitP99MS  float64 `json:"hit_p99_ms"`
	// SpeedupP50 = ColdP50MS / HitP50MS — the number the CI gate
	// asserts stays ≥10.
	SpeedupP50 float64 `json:"speedup_p50"`
	// HitRate is hits/(hits+misses) on the result cache over the whole
	// run; Coalesced counts requests that shared another request's
	// in-flight build (the thundering-herd protection at work).
	HitRate   float64 `json:"hit_rate"`
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Coalesced uint64  `json:"coalesced"`
	Evictions uint64  `json:"evictions"`
	Errors    int     `json:"errors,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// AdaptiveEngineBench is one row of the adaptive_engine section: the
// compiled adaptive (memoizing) engine measured head to head against
// the generic step engine on the same stationary policy — the number
// the CI bench-smoke gate asserts stays ≥3x.
type AdaptiveEngineBench struct {
	Family   string `json:"family"`
	Jobs     int    `json:"jobs"`
	Machines int    `json:"machines"`
	Policy   string `json:"policy"`
	// States is the number of states the compiled run memoized on
	// first visit (their digest cost is included in
	// CompiledRepsPerSec).
	States int `json:"states"`
	// CompiledRepsPerSec and GenericRepsPerSec are sequential
	// single-worker throughputs, so the ratio isolates the engine —
	// compiled policies additionally parallelize, generic adaptive
	// estimation of observer policies cannot.
	CompiledRepsPerSec float64 `json:"compiled_reps_per_sec"`
	GenericRepsPerSec  float64 `json:"generic_reps_per_sec"`
	Speedup            float64 `json:"speedup"`
	Error              string  `json:"error,omitempty"`
}

// BitParallelEngineBench is one row of the bitparallel_engine
// section: the 64-lane bit-parallel engine measured head to head
// against the scalar compiled engine on the same policy — the number
// the CI bench-smoke gate asserts stays ≥5x on the chains-48x8 and
// chains-96x12 rows.
type BitParallelEngineBench struct {
	Family   string `json:"family"`
	Jobs     int    `json:"jobs"`
	Machines int    `json:"machines"`
	Policy   string `json:"policy"`
	// LaneEngine / ScalarEngine are the EngineUsed names of the two
	// timed runs ("compiled-lane" vs "compiled"); Lanes is the lockstep
	// width (64).
	LaneEngine   string `json:"lane_engine"`
	ScalarEngine string `json:"scalar_engine"`
	Lanes        int    `json:"lanes"`
	Reps         int    `json:"reps"`
	// PartialLanes records the tail remainder: reps % lanes repetitions
	// run in a final partial group (masked lanes), chosen non-zero on
	// purpose so the record always exercises that path.
	PartialLanes int `json:"partial_lanes"`
	// LaneRepsPerSec and ScalarRepsPerSec are sequential single-worker
	// throughputs at identical rep counts, so the ratio isolates the
	// lane restructuring.
	LaneRepsPerSec   float64 `json:"lane_reps_per_sec"`
	ScalarRepsPerSec float64 `json:"scalar_reps_per_sec"`
	// LaneNsPerStep normalizes the lane run by simulated machine-steps.
	LaneNsPerStep float64 `json:"lane_ns_per_step"`
	Speedup       float64 `json:"speedup"`
	Error         string  `json:"error,omitempty"`
}

// SimBenchFile is the BENCH_sim.json document.
type SimBenchFile struct {
	Generated string `json:"generated"`
	// Commit is the VCS revision the record was measured at (CI passes
	// $GITHUB_SHA through suu-bench -commit), so an uploaded artifact
	// is attributable without its workflow context.
	Commit     string     `json:"commit,omitempty"`
	GoVersion  string     `json:"go_version"`
	GOMAXPROCS int        `json:"gomaxprocs"`
	Quick      bool       `json:"quick"`
	Seed       int64      `json:"seed"`
	Benchmarks []SimBench `json:"benchmarks"`
	// SolverBuilds records per-solver construction cost across the
	// registry.
	SolverBuilds []SolverBuildBench `json:"solver_build"`
	// LPBench records the LP layer benchmarked in isolation
	// (build+solve per family/size, sparse vs dense).
	LPBench []LPBench `json:"lp_bench,omitempty"`
	// AdaptiveEngine records the compiled-adaptive vs generic-step
	// estimation throughput on stationary policies.
	AdaptiveEngine []AdaptiveEngineBench `json:"adaptive_engine,omitempty"`
	// BitParallelEngine records the 64-lane bit-parallel engine vs the
	// scalar compiled engines on the same policies.
	BitParallelEngine []BitParallelEngineBench `json:"bitparallel_engine,omitempty"`
	// ExactSolver records the layered value iteration's wall-clock and
	// state-space shape per family, with the exhaustive-DP oracle timed
	// side by side where it is feasible.
	ExactSolver []ExactSolverBench `json:"exact_solver,omitempty"`
	// Dynamic records the T15 dynamic-scenario strategies head to head
	// (oblivious vs adaptive vs rolling re-solve) at each burst
	// intensity, with the oblivious-vs-rolling adaptivity gap and the
	// oblivious walk's skip speedup.
	Dynamic []DynamicBench `json:"dynamic,omitempty"`
	// Grid records the scenario-grid harness's cell throughput and
	// parallel speedup.
	Grid *GridHarnessBench `json:"grid_harness,omitempty"`
	// Serve records the serving layer's load harness: concurrent-client
	// storm, cache-hit vs cold latency, coalescing counters (filled by
	// internal/serve via cmd/suu-bench).
	Serve *ServeBench `json:"serve,omitempty"`
	// Skipped records families whose schedule construction failed, so
	// a lost row reads as an error instead of silently shrinking the
	// perf record.
	Skipped []string `json:"skipped,omitempty"`
}

// simBenchCase is one workload family of the engine benchmark suite.
type simBenchCase struct {
	family string
	build  func(seed int64) (*model.Instance, sched.Policy, string, error)
}

func simBenchCases() []simBenchCase {
	return []simBenchCase{
		{family: "chains-96x12", build: func(seed int64) (*model.Instance, sched.Policy, string, error) {
			in := workload.Chains(workload.Config{Jobs: 96, Machines: 12, Seed: seed}, 8)
			res, err := core.SUUChains(in, paramsWithSeed(seed))
			if err != nil {
				return nil, nil, "", err
			}
			return in, res.Schedule, "chains (Thm 4.4)", nil
		}},
		{family: "independent-64x16", build: func(seed int64) (*model.Instance, sched.Policy, string, error) {
			in := workload.Independent(workload.Config{Jobs: 64, Machines: 16, Seed: seed})
			res, err := core.SUUIndependentLP(in, paramsWithSeed(seed))
			if err != nil {
				return nil, nil, "", err
			}
			return in, res.Schedule, "oblivious-lp (Thm 4.5)", nil
		}},
		{family: "outforest-64x8", build: func(seed int64) (*model.Instance, sched.Policy, string, error) {
			in := workload.OutTree(workload.Config{Jobs: 64, Machines: 8, Seed: seed})
			res, err := core.SUUForest(in, paramsWithSeed(seed))
			if err != nil {
				return nil, nil, "", err
			}
			return in, res.Schedule, "trees (Thm 4.8)", nil
		}},
		{family: "adaptive-32x8", build: func(seed int64) (*model.Instance, sched.Policy, string, error) {
			in := workload.Independent(workload.Config{Jobs: 32, Machines: 8, Seed: seed})
			return in, &core.AdaptivePolicy{In: in}, "adaptive (Thm 3.3)", nil
		}},
	}
}

// NewSimBenchFile returns a BENCH_sim.json document with only the
// environment header filled in.
func NewSimBenchFile(cfg Config) SimBenchFile {
	return SimBenchFile{
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Quick:      cfg.Quick,
		Seed:       cfg.Seed,
	}
}

// SimBenchmarks measures engine throughput on every workload family.
// Construction happens outside the timed region.
func SimBenchmarks(cfg Config) SimBenchFile {
	reps := 2000
	if cfg.Quick {
		reps = 400
	}
	file := NewSimBenchFile(cfg)
	for _, bc := range simBenchCases() {
		in, pol, polName, err := bc.build(cfg.Seed)
		if err != nil {
			file.Skipped = append(file.Skipped, fmt.Sprintf("%s: %v", bc.family, err))
			continue
		}
		caseReps := reps
		if eng, _, _ := sim.Prepare(in, pol).Engine(); eng != sim.EngineCompiled {
			caseReps = reps / 4 // the step engine is the slow path; keep the suite quick
		}
		repsPerSec, nsPerStep, mean, eng := measureEngineInfo(in, pol, caseReps, cfg.Seed+43)
		quants, _ := sim.MakespanQuantilesParallel(in, pol, caseReps/2, 5_000_000, cfg.Seed+47, []float64{0.5, 0.99}, 1)
		file.Benchmarks = append(file.Benchmarks, SimBench{
			Family:       bc.family,
			Jobs:         in.N,
			Machines:     in.M,
			Policy:       polName,
			Engine:       eng.Engine,
			Reps:         caseReps,
			RepsPerSec:   repsPerSec,
			NsPerStep:    nsPerStep,
			AllocsPerRep: allocsPerRep(in, pol, cfg.Seed+43),
			MeanMakespan: mean,
			P50:          quants[0],
			P99:          quants[1],
		})
	}
	file.SolverBuilds = SolverBuildBenchmarks(cfg)
	file.AdaptiveEngine = AdaptiveEngineBenchmarks(cfg)
	file.BitParallelEngine = BitParallelEngineBenchmarks(cfg)
	file.ExactSolver = ExactSolverBenchmarks(cfg)
	file.LPBench = LPBenchmarks(cfg)
	file.Dynamic = DynamicBenchmarks(cfg)
	file.Grid = GridHarnessBenchmark(cfg)
	return file
}

// measureEngineInfo times the Monte Carlo estimator on one (instance,
// policy) pair, returning throughput in repetitions per second and
// nanoseconds per simulated step (normalized by the mean realized
// makespan) at the median run, the mean makespan itself, and the
// EngineUsed record of the measured runs, so perf rows report the
// engine that actually produced the number.
func measureEngineInfo(in *model.Instance, pol sched.Policy, reps int, seed int64) (repsPerSec, nsPerStep, meanMakespan float64, eng sim.EngineUsed) {
	tm, _ := sample(timedPairs, false, func() error {
		sum, _, e := sim.EstimateParallelInfo(in, pol, reps, 5_000_000, seed, 0)
		meanMakespan, eng = sum.Mean, e
		return nil
	}, nil) // the estimator returns no error
	if steps := meanMakespan * float64(reps); steps > 0 {
		nsPerStep = tm.A.Median * 1e6 / steps
	}
	return perSec(reps, tm.A.Median), nsPerStep, meanMakespan, eng
}

// adaptiveEngineCases are the stationary-policy workloads the
// adaptive_engine section measures: an independent instance whose
// 2^12-state lattice sits inside the compile budget, and a chains
// instance whose precedence collapses the state space to a product of
// chain lengths.
func adaptiveEngineCases(cfg Config) []struct {
	family string
	in     *model.Instance
} {
	seed := sim.SeedFor(cfg.Seed, "bench-adaptive")
	return []struct {
		family string
		in     *model.Instance
	}{
		{"independent-12x4", workload.Independent(workload.Config{Jobs: 12, Machines: 4, Seed: seed})},
		{"chains-20x5", workload.Chains(workload.Config{Jobs: 20, Machines: 5, Seed: seed}, 4)},
	}
}

// AdaptiveEngineBenchmarks measures the compiled adaptive (memoizing)
// engine against the generic step engine on the MSM greedy policy.
func AdaptiveEngineBenchmarks(cfg Config) []AdaptiveEngineBench {
	compiledReps, genericReps := 4000, 1000
	if cfg.Quick {
		compiledReps, genericReps = 1000, 250
	}
	var out []AdaptiveEngineBench
	for _, bc := range adaptiveEngineCases(cfg) {
		out = append(out, adaptiveEngineRow(bc.family, bc.in, compiledReps, genericReps, cfg.Seed+53))
	}
	return out
}

// adaptiveEngineRow times the MSM greedy on in through the compiled
// adaptive engine (compiledReps) against the generic step engine
// (genericReps). Both are sequential single-worker estimations with
// identical per-rep streams, so only the engine differs; the generic
// run is forced through a PolicyFunc wrapper, which strips the
// Memoizable marker without touching the assignments. A call that runs
// on another engine sets Error. Speedup is the median per-pair ratio of
// the two rates.
func adaptiveEngineRow(family string, in *model.Instance, compiledReps, genericReps int, seed int64) AdaptiveEngineBench {
	pol := &core.AdaptivePolicy{In: in}
	row := AdaptiveEngineBench{Family: family, Jobs: in.N, Machines: in.M, Policy: "adaptive (Thm 3.3)"}
	compiled := func() error {
		_, _, eng := sim.EstimateParallelInfo(in, pol, compiledReps, 5_000_000, seed, 1)
		row.States = eng.States
		return wantEngine(eng, sim.EngineCompiledAdaptive, 0)
	}
	generic := func() error {
		_, _, eng := sim.EstimateParallelInfo(in, sched.PolicyFunc(pol.Assign), genericReps, 5_000_000, seed, 1)
		return wantEngine(eng, sim.EngineGeneric, 0)
	}
	tm, err := sample(timedPairs, false, compiled, generic)
	if err != nil {
		row.Error = err.Error()
		return row
	}
	row.CompiledRepsPerSec = perSec(compiledReps, tm.A.Median)
	row.GenericRepsPerSec = perSec(genericReps, tm.B.Median)
	row.Speedup = tm.Ratio * float64(compiledReps) / float64(genericReps)
	return row
}

// wantEngine reports an estimate that ran on another engine or lane
// width than a timed comparison asks for.
func wantEngine(eng sim.EngineUsed, engine string, lanes int) error {
	if eng.Engine != engine || eng.Lanes != lanes {
		return fmt.Errorf("estimation ran on %q (%d lanes), want %q (%d lanes)", eng.Engine, eng.Lanes, engine, lanes)
	}
	return nil
}

// bitParallelEngineCases are the workloads the bitparallel_engine
// section measures: the chains-48x8 and chains-96x12 rows the CI gate
// reads (the paper constructions whose throughput story this engine
// continues) and the widest oblivious LP family.
func bitParallelEngineCases(cfg Config) []struct {
	family string
	build  func(seed int64) (*model.Instance, sched.Policy, string, error)
} {
	chains := func(jobs, machines, nChains int) func(seed int64) (*model.Instance, sched.Policy, string, error) {
		return func(seed int64) (*model.Instance, sched.Policy, string, error) {
			in := workload.Chains(workload.Config{Jobs: jobs, Machines: machines, Seed: seed}, nChains)
			res, err := core.SUUChains(in, paramsWithSeed(seed))
			if err != nil {
				return nil, nil, "", err
			}
			return in, res.Schedule, "chains (Thm 4.4)", nil
		}
	}
	return []struct {
		family string
		build  func(seed int64) (*model.Instance, sched.Policy, string, error)
	}{
		{"chains-48x8", chains(48, 8, 6)},
		{"chains-96x12", chains(96, 12, 8)},
		{"independent-64x16", func(seed int64) (*model.Instance, sched.Policy, string, error) {
			in := workload.Independent(workload.Config{Jobs: 64, Machines: 16, Seed: seed})
			res, err := core.SUUIndependentLP(in, paramsWithSeed(seed))
			if err != nil {
				return nil, nil, "", err
			}
			return in, res.Schedule, "oblivious-lp (Thm 4.5)", nil
		}},
	}
}

// BitParallelEngineBenchmarks measures the 64-lane bit-parallel
// engine against the scalar compiled engine. Rep counts are
// deliberately not lane-width multiples, so every record includes a
// masked partial tail group.
func BitParallelEngineBenchmarks(cfg Config) []BitParallelEngineBench {
	reps := 8024
	if cfg.Quick {
		reps = 2008
	}
	var out []BitParallelEngineBench
	for _, bc := range bitParallelEngineCases(cfg) {
		seed := sim.SeedFor(cfg.Seed, "bench-bitparallel/"+bc.family)
		in, pol, polName, err := bc.build(seed)
		if err != nil {
			out = append(out, BitParallelEngineBench{Family: bc.family, Policy: polName, Error: err.Error()})
			continue
		}
		out = append(out, bitParallelRow(bc.family, polName, in, pol, reps, seed+59))
	}
	return out
}

// bitParallelRow times the lane walk of pol on in against the scalar
// compiled walk (sim.EstimateInfoLanes with lanes off), on otherwise
// identical sequential single-worker estimations. A call that runs on
// another engine or lane width sets Error.
func bitParallelRow(family, policy string, in *model.Instance, pol sched.Policy, reps int, seed int64) BitParallelEngineBench {
	row := BitParallelEngineBench{
		Family: family, Jobs: in.N, Machines: in.M, Policy: policy,
		Reps: reps, PartialLanes: reps % sim.LaneWidth,
	}
	var laneMean float64
	lane := func() error {
		sum, _, eng := sim.EstimateInfoLanes(in, pol, reps, 5_000_000, seed, true)
		laneMean = sum.Mean
		return wantEngine(eng, sim.EngineLane, sim.LaneWidth)
	}
	scalar := func() error {
		_, _, eng := sim.EstimateInfoLanes(in, pol, reps, 5_000_000, seed, false)
		return wantEngine(eng, sim.EngineCompiled, 0)
	}
	tm, err := sample(timedPairs, false, lane, scalar)
	if err != nil {
		row.Error = err.Error()
		return row
	}
	row.LaneEngine, row.ScalarEngine, row.Lanes = sim.EngineLane, sim.EngineCompiled, sim.LaneWidth
	row.LaneRepsPerSec = perSec(reps, tm.A.Median)
	row.ScalarRepsPerSec = perSec(reps, tm.B.Median)
	if steps := laneMean * float64(reps); steps > 0 {
		row.LaneNsPerStep = tm.A.Median * 1e6 / steps
	}
	row.Speedup = tm.Ratio
	return row
}

// SolverBuildBenchmarks times every registry solver's construction on
// a reference workload of its class. Build time matters independently
// of engine throughput: the LP pipelines pay simplex up front, and
// the scenario grid pays it once per cell.
func SolverBuildBenchmarks(cfg Config) []SolverBuildBench {
	jobs, machines := 48, 8
	if cfg.Quick {
		jobs, machines = 24, 6
	}
	refs := map[string]struct {
		family string
		gen    func(seed int64) *model.Instance
	}{
		"chains": {"chains", func(seed int64) *model.Instance {
			return workload.Chains(workload.Config{Jobs: jobs, Machines: machines, Seed: seed}, machines/2)
		}},
		"forest": {"out-tree", func(seed int64) *model.Instance {
			return workload.OutTree(workload.Config{Jobs: jobs, Machines: machines, Seed: seed})
		}},
		"optimal": {"independent", func(seed int64) *model.Instance {
			return workload.Independent(workload.Config{Jobs: 6, Machines: 2, Seed: seed})
		}},
	}
	defaultGen := func(seed int64) *model.Instance {
		return workload.Independent(workload.Config{Jobs: jobs, Machines: machines, Seed: seed})
	}
	var out []SolverBuildBench
	for _, s := range solve.All() {
		family, gen := "independent", defaultGen
		if ref, ok := refs[s.ID]; ok {
			family, gen = ref.family, ref.gen
		}
		seed := sim.SeedFor(cfg.Seed, "bench-build/"+s.ID)
		out = append(out, solverBuildRow(s, family, gen(seed), paramsWithSeed(sim.SeedFor(seed, "build"))))
	}
	return out
}

// solverBuildRow times s's construction on in and, for an LP-backed
// solver, the same construction forced through the dense LP oracle,
// side by side.
func solverBuildRow(s solve.Solver, family string, in *model.Instance, par core.Params) SolverBuildBench {
	row := SolverBuildBench{Solver: s.ID, Theorem: s.Theorem, Family: family, Jobs: in.N, Machines: in.M}
	res, err := s.Build(in, par)
	if err != nil {
		row.Error = err.Error()
		return row
	}
	row.PrefixLen, row.LPPivots = res.PrefixLen, res.LPPivots
	row.LPRows, row.LPCols, row.LPNnz = res.LPRows, res.LPCols, res.LPNnz
	build := func(par core.Params) func() error {
		return func() error {
			_, err := s.Build(in, par)
			return err
		}
	}
	var dense func() error
	if row.LPPivots > 0 {
		parDense := par
		parDense.DenseLP = true
		dense = build(parDense)
	}
	tm, err := sample(timedPairs, false, build(par), dense)
	if err != nil {
		row.Error = err.Error()
		return row
	}
	row.BuildMS = tm.A.Median
	if dense != nil {
		row.DenseBuildMS, row.SpeedupVsDense = tm.B.Median, tm.Ratio
	}
	return row
}

// GridBenchSpec is the short CPU-heavy reference grid shape shared by
// the BENCH_sim.json grid-harness record and the speedup test. The
// quick flag only scales the trial count: the CI bench job records
// the quick variant while TestGridSpeedup times the full one, so the
// two numbers describe the same workload at different sizes, not the
// same measurement.
func GridBenchSpec(quick bool) GridSpec {
	var points []GridPoint
	for _, sc := range []string{"independent", "chains", "out-tree", "power-law"} {
		points = append(points, GridPoint{Scenario: sc, Jobs: 24, Machines: 6})
	}
	trials := 4
	if quick {
		trials = 2
	}
	return GridSpec{Points: points, Solvers: []string{"forest", "adaptive"}, Trials: trials}
}

// GridHarnessBenchmark measures the scenario-grid harness on the
// reference grid: cells/sec with the configured worker pool vs the
// sequential harness. The speedup column is the number the acceptance
// bar reads (≥ 2× on a multi-core runner); on a single-core machine
// it hovers near 1.
func GridHarnessBenchmark(cfg Config) *GridHarnessBench {
	plan := Plan("bench", GridBenchSpec(cfg.Quick))
	cells := plan.NumCells()
	par, seq := cfg, cfg
	par.Workers = 0 // full pool
	seq.Workers = 1
	run := func(c Config) func() error {
		return func() error {
			RunPlan(c, plan)
			return nil
		}
	}
	tm, _ := sample(timedPairs, false, run(par), run(seq)) // RunPlan returns no error
	return &GridHarnessBench{
		Cells:          cells,
		Workers:        par.workers(),
		CellsPerSec:    perSec(cells, tm.A.Median),
		SeqCellsPerSec: perSec(cells, tm.B.Median),
		Speedup:        tm.Ratio,
	}
}

// allocsPerRep measures steady-state allocations per repetition by
// differencing two Estimate calls, cancelling the fixed per-call cost
// (schedule compilation, accumulators, worker state).
func allocsPerRep(in *model.Instance, pol sched.Policy, seed int64) float64 {
	const base = 32
	small := testing.AllocsPerRun(3, func() { sim.EstimateParallelInfo(in, pol, base, 5_000_000, seed, 1) })
	large := testing.AllocsPerRun(3, func() { sim.EstimateParallelInfo(in, pol, 2*base, 5_000_000, seed, 1) })
	per := (large - small) / base
	if per < 0 {
		per = 0
	}
	return per
}

// WriteSimBenchJSON renders the document with stable indentation.
func WriteSimBenchJSON(f SimBenchFile) ([]byte, error) {
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
