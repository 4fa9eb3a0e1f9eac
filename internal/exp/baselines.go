package exp

// t10Workloads pairs each motivating workload with its display label;
// plan and renderer share it so spec segments and row labels cannot
// drift apart. The chains workload keeps m ≤ 4 on purpose: its
// few-thousand-state down-set lattice is solvable exactly at n=20, so
// its rows carry true optimality gaps where the Section 1 scenarios
// (m ≥ 5) only support relative comparison.
var t10Workloads = []struct {
	label string
	point GridPoint
	class string
}{
	{"grid (out-tree, bimodal)", GridPoint{Scenario: "grid-pipeline", Jobs: 20, Machines: 6}, "out-forest"},
	{"project (chains, specialists)", GridPoint{Scenario: "project-plan", Jobs: 10, Machines: 5}, "chains"},
	{"chains at the exact frontier", GridPoint{Scenario: "chains", Jobs: 20, Machines: 4}, "chains"},
}

// t10Plan declares T10, which compares the paper's constructions
// against naive baselines on the two motivating scenarios of Section 1
// (grid computing, project management), plus an n=20 chains workload
// sized to sit exactly on the value iteration's frontier: who wins, by
// roughly what factor, and — where the exact solver reaches — by how
// much everyone misses T_OPT. The contenders are not hand-picked:
// every registry solver applicable to the workload's precedence class
// enters (the exact DP stays out of the sweep and instead supplies the
// T_OPT reference column). The solver sweep is a declared plan, so CI
// runs its cells as disjoint ranges, and each row records which
// simulation engine estimated it: the stationary policies (adaptive,
// greedy-maxp, all-on-one) run the compiled adaptive (memoizing)
// engine.
//
// The plan is one spec per workload, because each workload carries its
// own applicable-solver set.
func t10Plan(cfg Config) GridPlan {
	plan := GridPlan{ID: "T10"}
	for _, w := range t10Workloads {
		plan.Specs = append(plan.Specs, GridSpec{
			Points:  []GridPoint{w.point},
			Solvers: solverIDsFor(w.class, true),
			Trials:  1,
		})
	}
	return plan
}

// renderT10 aggregates per workload block: best mean first, then one
// row per solver with its ratio to the best, its gap to the exact
// optimum where the value iteration reaches the workload, and the
// engine that simulated it. The T_OPT column re-derives each block's
// instance from the same coordinates the cells used (trial 0 — T10
// runs one trial per workload), so the reference is computed for
// exactly the instance the sweep estimated, on the render side of the
// shard boundary.
func renderT10(cfg Config, results []ShardCell) *Table {
	t := &Table{
		ID:         "T10",
		Title:      "Schedulers head-to-head on the paper's motivating workloads",
		PaperBound: "Section 1 motivation (no single theorem): coordinated schedules should beat naive ones",
		Header:     []string{"workload", "solver", "construction", "engine", "E[makespan]", "vs best", "T_OPT", "vs T_OPT"},
	}
	off := 0
	for i, spec := range t10Plan(cfg).Specs {
		block := results[off : off+spec.NumCells()]
		off += len(block)
		label := t10Workloads[i].label
		topt, exact := 0.0, false
		if in, _, err := cellInstance(cfg, GridCell{Point: t10Workloads[i].point}); err == nil {
			topt, exact = exactOpt(in)
		}
		toptCol, gap := "—", func(mean float64) string { return "—" }
		if exact {
			toptCol = f2(topt)
			gap = func(mean float64) string { return f2(mean / topt) }
		}
		best := -1.0
		for _, r := range block {
			if r.Err == "" && r.Mean > 0 && (best < 0 || r.Mean < best) {
				best = r.Mean
			}
		}
		for _, r := range block {
			if r.Err != "" || r.Mean < 0 {
				t.Rows = append(t.Rows, []string{label, r.Solver, r.Kind, r.Engine, "did not finish", "—", toptCol, "—"})
				continue
			}
			t.Rows = append(t.Rows, []string{label, r.Solver, r.Kind, r.Engine, f2(r.Mean), f2(r.Mean / best), toptCol, gap(r.Mean)})
		}
	}
	t.Notes = "Adaptive coordination wins outright; among non-adaptive options the paper's oblivious schedule is the only one with a guarantee (the naive baselines are adaptive — they observe completions — yet uncoordinated ones still lose ground). " +
		"The engine column shows which simulator ran the cell: compiled (event-wise oblivious), compiled-adaptive (memoized transition table), or generic (per-step policy calls). " +
		"T_OPT is the exact optimum from the layered value iteration where the workload sits inside its frontier (m ≤ 4, modest down-set lattice); vs T_OPT is then a true optimality gap rather than a best-in-sweep ratio."
	return t
}
