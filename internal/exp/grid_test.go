package exp

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"suu/internal/sim"
	"suu/internal/workload"
)

func TestRunCellsPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 16} {
		cfg := Config{Workers: workers}
		got := runCells(cfg, 37, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d]=%d, want %d", workers, i, v, i*i)
			}
		}
	}
	if out := runCells(Config{}, 0, func(i int) int { return i }); out != nil {
		t.Error("zero cells should return nil")
	}
}

func TestScenarioVocabularyGeneratesValidInstances(t *testing.T) {
	for _, sc := range Scenarios {
		in := sc.Gen(workload.Config{Jobs: 12, Machines: 4, Seed: 5}, 0)
		if err := in.Validate(); err != nil {
			t.Errorf("%s: %v", sc.Name, err)
		}
		if in.N != 12 || in.M != 4 {
			t.Errorf("%s: got %dx%d, want 12x4", sc.Name, in.N, in.M)
		}
	}
	if _, ok := ScenarioByName("nope"); ok {
		t.Error("unknown scenario resolved")
	}
	for _, name := range []string{"power-law", "correlated", "layered-width"} {
		if _, ok := ScenarioByName(name); !ok {
			t.Errorf("new family %s missing from vocabulary", name)
		}
	}
}

// stripGridTimings clears the fields that measure wall-clock time and
// therefore legitimately differ between runs.
func stripGridTimings(rs []ShardCell) []ShardCell {
	out := append([]ShardCell(nil), rs...)
	for i := range out {
		out[i].BuildMS = 0
	}
	return out
}

func TestGridBitIdenticalAcrossWorkers(t *testing.T) {
	spec := GridSpec{
		Points: []GridPoint{
			{Scenario: "independent", Jobs: 8, Machines: 3},
			{Scenario: "chains", Jobs: 8, Machines: 3, Arg: 2},
			{Scenario: "power-law", Jobs: 6, Machines: 3},
		},
		Solvers: []string{"lp-oblivious", "forest", "adaptive", "greedy-maxp", "random"},
		Trials:  2,
	}
	plan := Plan("workers", spec)
	base := stripGridTimings(RunPlan(Config{Quick: true, Seed: 3, Workers: 1}, plan))
	for _, workers := range []int{2, 8} {
		got := stripGridTimings(RunPlan(Config{Quick: true, Seed: 3, Workers: workers}, plan))
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("grid results differ between Workers=1 and Workers=%d", workers)
		}
	}
}

// maskTimingColumns blanks table columns whose headers mark wall-clock
// milliseconds (T14's build ms) — the only values allowed to differ
// between runs of the same experiment; the other tables hold no
// timings.
func maskTimingColumns(tb *Table) {
	for c, h := range tb.Header {
		if !strings.HasSuffix(h, " ms") {
			continue
		}
		for _, row := range tb.Rows {
			row[c] = "masked"
		}
	}
}

// TestTablesBitIdenticalAcrossWorkers locks the satellite requirement:
// every exp.All table is identical whether the harness runs
// sequentially or on a full worker pool (and hence at any GOMAXPROCS).
// Only T14's wall-clock build ms column is masked — it measures the
// run, not the experiment.
func TestTablesBitIdenticalAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping Monte Carlo determinism sweep in -short mode")
	}
	seq := All(Config{Quick: true, Seed: 7, Workers: 1})
	par := All(Config{Quick: true, Seed: 7, Workers: 8})
	if len(seq) != len(par) || len(seq) != len(Drivers) {
		t.Fatalf("table counts differ: %d vs %d (want %d)", len(seq), len(par), len(Drivers))
	}
	for i := range seq {
		maskTimingColumns(seq[i])
		maskTimingColumns(par[i])
		if seq[i].Markdown() != par[i].Markdown() {
			t.Errorf("%s: tables differ between Workers=1 and Workers=8:\n--- sequential\n%s\n--- parallel\n%s",
				seq[i].ID, seq[i].Markdown(), par[i].Markdown())
		}
	}
}

// requireSpeedup times seq vs par and fails the test when the ratio
// stays under want. Wall-clock comparisons on shared CI runners are
// noisy, so a miss is retried (three attempts total) before it counts
// — a genuine loss of parallelism fails every attempt.
func requireSpeedup(t *testing.T, label string, want float64, seq, par func() time.Duration) {
	t.Helper()
	for attempt := 0; ; attempt++ {
		s, p := seq(), par()
		speedup := float64(s) / float64(p)
		t.Logf("%s (attempt %d): sequential %v, parallel %v, speedup %.2fx on %d CPUs",
			label, attempt+1, s, p, speedup, runtime.GOMAXPROCS(0))
		if speedup >= want {
			return
		}
		if attempt == 2 {
			t.Errorf("%s speedup %.2fx < %.1fx on %d CPUs", label, speedup, want, runtime.GOMAXPROCS(0))
			return
		}
	}
}

// TestGridSpeedup demonstrates the harness's point: on a multi-core
// runner the parallel grid beats the sequential one by ≥ 2× (we
// assert conservative floors to stay robust against noisy CI
// neighbours; BENCH_sim.json records the real number). It uses the
// same reference grid as the BENCH_sim.json grid_harness section.
func TestGridSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping wall-clock comparison in -short mode")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("only %d CPUs; speedup needs a multi-core runner", runtime.GOMAXPROCS(0))
	}
	plan := Plan("bench", GridBenchSpec(false))
	timeGrid := func(workers int) func() time.Duration {
		return func() time.Duration {
			start := time.Now()
			RunPlan(Config{Quick: true, Seed: 9, Workers: workers}, plan)
			return time.Since(start)
		}
	}
	timeGrid(0)() // warm caches before measuring
	requireSpeedup(t, "RunPlan", 1.5, timeGrid(1), timeGrid(0))
	// The acceptance bar is end to end: exp.All itself must beat the
	// sequential harness. Its ceiling is lower (it runs the tables one
	// after another, and some have few cells), hence the softer floor.
	timeAll := func(workers int) func() time.Duration {
		return func() time.Duration {
			start := time.Now()
			All(Config{Quick: true, Seed: 9, Workers: workers})
			return time.Since(start)
		}
	}
	requireSpeedup(t, "exp.All", 1.3, timeAll(1), timeAll(0))
}

func TestEvalCellReportsUnknownNames(t *testing.T) {
	cfg := Config{Quick: true, Seed: 1, Workers: 1}
	if r := EvalCell(cfg, GridCell{Point: GridPoint{Scenario: "nope", Jobs: 4, Machines: 2}, Solver: "forest"}); r.Err == "" {
		t.Error("unknown scenario not reported")
	}
	if r := EvalCell(cfg, GridCell{Point: GridPoint{Scenario: "independent", Jobs: 4, Machines: 2}, Solver: "nope"}); r.Err == "" {
		t.Error("unknown solver not reported")
	}
	r := EvalCell(cfg, GridCell{Point: GridPoint{Scenario: "independent", Jobs: 4, Machines: 2}, Solver: "lp-oblivious"})
	if r.Err != "" || r.Mean <= 0 || r.Class != "independent" || r.Kind == "" {
		t.Errorf("healthy cell misreported: %+v", r)
	}
}

// TestGridComparisonsArePaired pins the seed-derivation contract that
// makes "vs best" columns meaningful: every solver at one (point,
// trial) coordinate must be evaluated on the same generated instance
// with the same simulation streams.
func TestGridComparisonsArePaired(t *testing.T) {
	cfg := Config{Quick: true, Seed: 11, Workers: 1}
	point := GridPoint{Scenario: "power-law", Jobs: 8, Machines: 3}
	r := EvalCell(cfg, GridCell{Point: point, Solver: "adaptive"})
	if r.Err != "" {
		t.Fatal(r.Err)
	}
	// Reproduce the cell by hand from the (point, trial) seed alone.
	sc, _ := ScenarioByName(point.Scenario)
	seed := pointSeed(cfg.Seed, point, 0)
	in := sc.Gen(workload.Config{Jobs: point.Jobs, Machines: point.Machines, Seed: seed}, point.Arg)
	mean := estimate(in, registryPolicy("adaptive", in, sim.SeedFor(seed, "adaptive")), cfg.reps(), sim.SeedFor(seed, "sim"))
	if mean != r.Mean {
		t.Errorf("EvalCell mean %v != hand-derived %v: instance/sim seeds must depend only on (point, trial)", r.Mean, mean)
	}
	// A different solver on the same coordinate sees the same class
	// (same instance) rather than a per-solver regeneration.
	r2 := EvalCell(cfg, GridCell{Point: point, Solver: "greedy-maxp"})
	if r2.Err != "" || r2.Class != r.Class {
		t.Errorf("paired cell diverged: %+v vs %+v", r, r2)
	}
}

// TestEvalCellHonorsOverridesAndRecordsEngine covers the two grid
// extensions: per-spec parameter overrides reach the construction (σ=1
// vs σ=4 quadruples the replicated prefix), and every evaluated cell
// records which simulation engine ran it.
func TestEvalCellHonorsOverridesAndRecordsEngine(t *testing.T) {
	cfg := Config{Quick: true, Seed: 11, Workers: 1}
	point := GridPoint{Scenario: "independent", Jobs: 8, Machines: 3}
	sigma1 := EvalCell(cfg, GridCell{Point: point, Solver: "lp-oblivious", Overrides: &ParamOverrides{ReplicationFactor: 1}})
	sigma4 := EvalCell(cfg, GridCell{Point: point, Solver: "lp-oblivious", Overrides: &ParamOverrides{ReplicationFactor: 4}})
	if sigma1.Err != "" || sigma4.Err != "" {
		t.Fatalf("cells errored: %v / %v", sigma1.Err, sigma4.Err)
	}
	if sigma4.PrefixLen != 4*sigma1.PrefixLen || sigma1.PrefixLen == 0 {
		t.Errorf("override ignored: σ=1 prefix %d, σ=4 prefix %d", sigma1.PrefixLen, sigma4.PrefixLen)
	}
	if sigma1.Engine != sim.EngineCompiled {
		t.Errorf("oblivious cell engine %q, want %q", sigma1.Engine, sim.EngineCompiled)
	}
	adaptive := EvalCell(cfg, GridCell{Point: point, Solver: "adaptive"})
	if adaptive.Engine != sim.EngineCompiledAdaptive {
		t.Errorf("adaptive cell engine %q, want %q (8 jobs fit the compile budget)", adaptive.Engine, sim.EngineCompiledAdaptive)
	}
	learning := EvalCell(cfg, GridCell{Point: point, Solver: "learning"})
	if learning.Engine != sim.EngineGeneric {
		t.Errorf("learning cell engine %q, want %q", learning.Engine, sim.EngineGeneric)
	}
	if r := EvalCell(cfg, GridCell{Point: point, Solver: "forest", Eval: "nope"}); r.Err == "" {
		t.Error("unknown cell evaluator not reported")
	}
	// Full-mode rep counts cross the bit-parallel auto-dispatch
	// threshold, and the lane engine's name must surface in the row.
	full := Config{Quick: false, Seed: 11, Workers: 1}
	if full.reps() < sim.BitParallelAutoMinReps {
		t.Fatalf("full-mode reps %d below lane threshold %d; test premise broken", full.reps(), sim.BitParallelAutoMinReps)
	}
	laneCell := EvalCell(full, GridCell{Point: point, Solver: "lp-oblivious"})
	if laneCell.Err != "" {
		t.Fatal(laneCell.Err)
	}
	if laneCell.Engine != sim.EngineLane {
		t.Errorf("full-mode oblivious cell engine %q, want %q (auto lane dispatch)", laneCell.Engine, sim.EngineLane)
	}
}

func TestSolverIDsForClassFiltering(t *testing.T) {
	ind := solverIDsFor("independent", true)
	if fmt.Sprint(ind) != fmt.Sprint([]string{"lp-oblivious", "chains", "forest", "comb-oblivious", "adaptive", "learning", "greedy-maxp", "round-robin", "all-on-one", "random"}) {
		t.Errorf("independent solver set: %v", ind)
	}
	gen := solverIDsFor("general", false)
	for _, id := range gen {
		if id == "lp-oblivious" || id == "comb-oblivious" || id == "chains" {
			t.Errorf("class-restricted solver %s leaked into general set", id)
		}
		if id == "greedy-maxp" || id == "random" {
			t.Errorf("baseline %s present despite includeBaselines=false", id)
		}
	}
}
