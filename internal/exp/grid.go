package exp

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"suu/internal/core"
	"suu/internal/dag"
	"suu/internal/model"
	"suu/internal/sim"
	"suu/internal/solve"
	"suu/internal/workload"
)

// This file is the scenario-grid harness every experiment driver runs
// on: a declarative cell vocabulary (workload scenario × solver id ×
// trial), a deterministic worker pool, and per-cell SplitMix64-derived
// seeds. Cells never share a random generator — each derives every
// seed it needs (instance, construction, simulation) from its own
// coordinates via sim.SeedFor — so tables are bit-identical at any
// worker count and any GOMAXPROCS; parallelism changes only
// wall-clock time.

// runCells evaluates eval(0..n-1) on cfg.workers() goroutines and
// returns the results in index order. Work is handed out by an atomic
// counter; since results land at their own index and eval must derive
// all randomness from the index, scheduling cannot influence values.
func runCells[T any](cfg Config, n int, eval func(int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	w := cfg.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			out[i] = eval(i)
		}
		return out
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = eval(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// runSweep is runCells for the drivers' dominant shape — a sweep of
// points with several Monte Carlo trials each. It evaluates
// eval(point, trial) for every combination on the worker pool and
// returns the results grouped by point, so aggregation loops never
// re-derive flat indices.
func runSweep[T any](cfg Config, points, trials int, eval func(point, trial int) T) [][]T {
	flat := runCells(cfg, points*trials, func(i int) T {
		return eval(i/trials, i%trials)
	})
	out := make([][]T, points)
	for p := range out {
		out[p] = flat[p*trials : (p+1)*trials]
	}
	return out
}

// Scenario is a named workload family in the grid vocabulary. Arg is
// a family-specific knob (chain count, component count, layer count
// or width); 0 selects the family default.
type Scenario struct {
	Name string
	// Class names the precedence family the generator produces, for
	// listings and docs.
	Class string
	Gen   func(c workload.Config, arg int) *model.Instance
}

// Scenarios is the registered grid vocabulary: every workload family
// reachable from GridSpec by name. Register new families here (and in
// cmd/suu-gen for CLI access).
var Scenarios = []Scenario{
	{"independent", "independent", func(c workload.Config, arg int) *model.Instance {
		return workload.Independent(c)
	}},
	{"chains", "chains", func(c workload.Config, arg int) *model.Instance {
		if arg == 0 {
			arg = (c.Jobs + 3) / 4
		}
		return workload.Chains(c, arg)
	}},
	{"out-tree", "out-forest", func(c workload.Config, arg int) *model.Instance {
		return workload.OutTree(c)
	}},
	{"in-tree", "in-forest", func(c workload.Config, arg int) *model.Instance {
		return workload.InTree(c)
	}},
	{"mixed-forest", "mixed-forest", func(c workload.Config, arg int) *model.Instance {
		if arg == 0 {
			arg = 3
		}
		return workload.MixedForest(c, arg)
	}},
	{"layered", "general", func(c workload.Config, arg int) *model.Instance {
		if arg == 0 {
			arg = 3
		}
		return workload.Layered(c, arg, 0.25)
	}},
	{"grid-pipeline", "out-forest", func(c workload.Config, arg int) *model.Instance {
		return workload.GridPipeline(c.Jobs, c.Machines, c.Seed)
	}},
	{"project-plan", "chains", func(c workload.Config, arg int) *model.Instance {
		return workload.ProjectPlan(c.Jobs, c.Machines, c.Seed)
	}},
	// Families beyond the seed experiments: heavy-tailed and rank-1
	// probability shapes, and general dags with a tunable antichain
	// width.
	{"power-law", "independent", func(c workload.Config, arg int) *model.Instance {
		c.Shape = workload.PowerLaw
		return workload.Independent(c)
	}},
	{"correlated", "independent", func(c workload.Config, arg int) *model.Instance {
		c.Shape = workload.Correlated
		return workload.Independent(c)
	}},
	{"layered-width", "general", func(c workload.Config, arg int) *model.Instance {
		if arg == 0 {
			arg = 4
		}
		return workload.LayeredWidth(c, arg, 0.3)
	}},
}

// ScenarioByName looks a scenario up in the vocabulary.
func ScenarioByName(name string) (Scenario, bool) {
	for _, s := range Scenarios {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// GridPoint is one workload coordinate of a scenario grid.
type GridPoint struct {
	Scenario string
	Jobs     int
	Machines int
	// Arg is the scenario's knob (0 = family default).
	Arg int
}

// ParamOverrides adjusts construction parameters for every cell of a
// spec — the declarative form of the ablation sweeps (A2's σ sweep is
// one spec per ReplicationFactor). Zero values leave the paper's
// defaults untouched. The struct is part of the shard fingerprint, so
// two sweeps differing only in overrides can never splice.
type ParamOverrides struct {
	// ReplicationFactor overrides Params.ReplicationFactor when > 0.
	ReplicationFactor int `json:"replication_factor,omitempty"`
}

// apply folds the overrides into par.
func (o *ParamOverrides) apply(par *core.Params) {
	if o == nil {
		return
	}
	if o.ReplicationFactor > 0 {
		par.ReplicationFactor = o.ReplicationFactor
	}
}

// GridSpec declares a scenario grid: the cross product of workload
// points, solver registry ids, and trial indices, optionally with
// per-spec parameter overrides and a custom cell evaluator.
type GridSpec struct {
	Points  []GridPoint
	Solvers []string
	Trials  int
	// Overrides optionally adjusts core.Params for every cell of this
	// spec. Nil means the defaults.
	Overrides *ParamOverrides `json:"Overrides,omitempty"`
	// Eval selects a registered custom cell evaluator ("" = the
	// standard build-and-estimate path). Ablations whose cells need
	// machinery the registry does not expose (A5's per-block reruns)
	// register theirs in cellEvals; the name rides in the fingerprint,
	// and every evaluator must derive all randomness from the cell's
	// coordinates so sharding stays value-preserving.
	Eval string `json:"Eval,omitempty"`
}

// GridCell is one cell of the cross product. Cells carry their spec's
// overrides and evaluator so they stay self-contained under sharding.
type GridCell struct {
	Point     GridPoint
	Solver    string
	Trial     int
	Overrides *ParamOverrides `json:"Overrides,omitempty"`
	Eval      string          `json:"Eval,omitempty"`
}

// NumCells returns len(s.Cells()) without materializing it. Every
// consumer that sizes or offsets into the enumeration (shard ranges,
// renderer segments) goes through this one definition.
func (s GridSpec) NumCells() int {
	trials := s.Trials
	if trials < 1 {
		trials = 1
	}
	return len(s.Points) * len(s.Solvers) * trials
}

// Cells enumerates the cross product in deterministic order: points
// outermost, then solvers, then trials.
func (s GridSpec) Cells() []GridCell {
	trials := s.Trials
	if trials < 1 {
		trials = 1
	}
	cells := make([]GridCell, 0, s.NumCells())
	for _, p := range s.Points {
		for _, id := range s.Solvers {
			for k := 0; k < trials; k++ {
				cells = append(cells, GridCell{Point: p, Solver: id, Trial: k, Overrides: s.Overrides, Eval: s.Eval})
			}
		}
	}
	return cells
}

// pointSeed derives the seed shared by every solver at one (point,
// trial) coordinate. The solver id is deliberately NOT mixed in: all
// solvers of a grid row see the same generated instance and the same
// simulation streams (common random numbers), so "vs best" columns
// compare schedules, not instance luck. Name fields chain through
// separate SeedFor calls so they stay domain-separated.
func pointSeed(root int64, p GridPoint, trial int) int64 {
	return sim.SeedFor(sim.SeedFor(root, p.Scenario), "point",
		int64(p.Jobs), int64(p.Machines), int64(p.Arg), int64(trial))
}

// cellEvals registers custom cell evaluators by the name GridSpec.Eval
// selects. Every evaluator must be a pure function of (cfg, cell) —
// all randomness derived from the cell's coordinates via sim.SeedFor —
// so custom cells shard exactly like standard ones.
var cellEvals = map[string]func(Config, GridCell) ShardCell{
	"t15-dyn": evalT15Dynamic,
	"a5-full": evalA5FullRange,
}

// cellRow starts the row of an evaluated cell: its coordinates and the
// (point, trial) seed it runs under. RunPlanRange sets the index.
func cellRow(cfg Config, c GridCell) ShardCell {
	return ShardCell{CellRow: CellRow{
		Scenario: c.Point.Scenario,
		Jobs:     c.Point.Jobs,
		Machines: c.Point.Machines,
		Arg:      c.Point.Arg,
		Solver:   c.Solver,
		Trial:    c.Trial,
		Seed:     pointSeed(cfg.Seed, c.Point, c.Trial),
	}}
}

// fail records err on the row, with the precedence class of the
// cell's instance when one was generated (in != nil).
func (r ShardCell) fail(in *model.Instance, err error) ShardCell {
	if in != nil {
		r.Class = in.Prec.Classify().String()
	}
	r.Err = err.Error()
	return r
}

// cellInstance regenerates a cell's instance from its coordinates —
// the shared front half of every evaluator.
func cellInstance(cfg Config, c GridCell) (*model.Instance, int64, error) {
	sc, ok := ScenarioByName(c.Point.Scenario)
	if !ok {
		return nil, 0, fmt.Errorf("exp: unknown scenario %q", c.Point.Scenario)
	}
	seed := pointSeed(cfg.Seed, c.Point, c.Trial)
	return sc.Gen(workload.Config{Jobs: c.Point.Jobs, Machines: c.Point.Machines, Seed: seed}, c.Point.Arg), seed, nil
}

// EvalCell builds and simulates one cell. All randomness derives from
// the cell's coordinates: instance generation and simulation from the
// (point, trial) seed — identical across solvers, so comparisons are
// paired — and construction randomness additionally from the solver
// id. Cells with a custom evaluator dispatch to it instead. The row's
// Index stays 0; RunPlanRange tags it with the cell's position.
func EvalCell(cfg Config, c GridCell) ShardCell {
	r := cellRow(cfg, c)
	if c.Eval != "" {
		fn, ok := cellEvals[c.Eval]
		if !ok {
			return r.fail(nil, fmt.Errorf("exp: unknown cell evaluator %q", c.Eval))
		}
		return fn(cfg, c)
	}
	sol, ok := solve.Get(c.Solver)
	if !ok {
		return r.fail(nil, fmt.Errorf("exp: unknown solver %q", c.Solver))
	}
	in, seed, err := cellInstance(cfg, c)
	if err != nil {
		return r.fail(nil, err)
	}
	par := core.DefaultParams()
	c.Overrides.apply(&par)
	par.Seed = sim.SeedFor(seed, c.Solver)
	start := time.Now()
	res, err := sol.Build(in, par)
	r.BuildMS = float64(time.Since(start).Nanoseconds()) / 1e6
	if err != nil {
		return r.fail(in, err)
	}
	mean, eng := estimateInfo(in, res.Policy, cfg.reps(), sim.SeedFor(seed, "sim"))
	r.Class = in.Prec.Classify().String()
	r.Kind = res.Kind
	r.Mean = mean
	r.LowerBound = res.LowerBound
	r.PrefixLen = res.PrefixLen
	r.Engine = eng.Engine
	r.LPPivots = res.LPPivots
	return r
}

// classByName maps a precedence-class name (as Scenario.Class uses
// them) back to the dag.Class constant. It panics on an unknown name:
// a typo in a scenario registration should fail the first test that
// touches it, not silently shrink a solver set.
func classByName(name string) dag.Class {
	for c := dag.ClassIndependent; c <= dag.ClassGeneral; c++ {
		if c.String() == name {
			return c
		}
	}
	panic("exp: unknown precedence class name " + name)
}

// solverIDsFor returns the registry ids applicable to the named
// class, in registration order, skipping the exact DP (which only
// fits tiny instances) and, optionally, the baselines.
func solverIDsFor(class string, includeBaselines bool) []string {
	c := classByName(class)
	var out []string
	for _, s := range solve.All() {
		if s.ID == "optimal" {
			continue
		}
		if s.Baseline && !includeBaselines {
			continue
		}
		if s.AppliesTo(c) {
			out = append(out, s.ID)
		}
	}
	return out
}
