package exp

// t13Plan declares T13, which exercises the scenario-grid vocabulary
// on the workload families beyond the seed experiments: heavy-tailed
// (power-law) and rank-1 (correlated) probability shapes, and layered
// general dags with a tunable antichain width. Each point runs every
// applicable registry solver; rows report who wins where. Beyond its
// findings, the table is the living example of declaring a grid: add
// a Scenario and a GridPoint and the harness — including the
// process-sharded path — does the rest.
//
// The plan is one spec per point, because each point carries its own
// applicable-solver set (the pairing is not a cross product).
func t13Plan(cfg Config) GridPlan {
	n, m := 24, 6
	if cfg.Quick {
		n, m = 16, 4
	}
	points := []GridPoint{
		{Scenario: "power-law", Jobs: n, Machines: m},
		{Scenario: "correlated", Jobs: n, Machines: m},
		{Scenario: "layered-width", Jobs: n, Machines: m, Arg: 2},
		{Scenario: "layered-width", Jobs: n, Machines: m, Arg: 6},
	}
	plan := GridPlan{ID: "T13"}
	for _, p := range points {
		sc, _ := ScenarioByName(p.Scenario)
		// Skip the learner and random baseline here: both are slow
		// burners on heavy-tailed matrices and T10 already covers them.
		var solvers []string
		for _, id := range solverIDsFor(sc.Class, true) {
			if id == "learning" || id == "random" {
				continue
			}
			solvers = append(solvers, id)
		}
		plan.Specs = append(plan.Specs, GridSpec{Points: []GridPoint{p}, Solvers: solvers, Trials: 1})
	}
	return plan
}

// renderT13 builds the table from the plan's results, one best-of
// aggregation per point.
func renderT13(cfg Config, results []ShardCell) *Table {
	t := &Table{
		ID:         "T13",
		Title:      "Scenario grid: new workload families × solver registry",
		PaperBound: "beyond the paper's experiments; guarantees still per solver class",
		Header:     []string{"scenario", "n", "m", "arg", "class", "solver", "E[makespan]", "vs best"},
	}
	off := 0
	for _, spec := range t13Plan(cfg).Specs {
		block := results[off : off+spec.NumCells()]
		off += len(block)
		best := -1.0
		for _, r := range block {
			if r.Err == "" && r.Mean > 0 && (best < 0 || r.Mean < best) {
				best = r.Mean
			}
		}
		for _, r := range block {
			if r.Err != "" || r.Mean < 0 {
				t.Rows = append(t.Rows, []string{r.Scenario, d(r.Jobs), d(r.Machines), d(r.Arg), r.Class, r.Solver, "did not finish", "—"})
			} else {
				t.Rows = append(t.Rows, []string{r.Scenario, d(r.Jobs), d(r.Machines), d(r.Arg), r.Class, r.Solver, f2(r.Mean), f2(r.Mean / best)})
			}
		}
	}
	t.Notes = "power-law/correlated shapes stress the LP constructions' bucketing; layered-width sweeps Malewicz's hardness parameter (dag width) directly. The harness evaluates all cells in parallel with per-cell derived seeds."
	return t
}
