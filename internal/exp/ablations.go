package exp

import (
	"suu/internal/core"
	"suu/internal/sim"
	"suu/internal/workload"
)

// A2 sweeps the replication factor σ of the schedule-replication step:
// the paper's σ = 16⌈log₂ n⌉ guarantees whp completion inside the
// prefix; smaller σ gives shorter schedules that lean on the tail.
// The sweep is declared, not hand-rolled: one spec per σ carrying a
// ParamOverrides, which makes A2 a shardable GridDriver like any
// other grid table — every spec shares the same workload point, so
// all factors are evaluated on the same generated instance with the
// same simulation streams (paired comparison by construction).
func A2(cfg Config) *Table {
	g, _ := GridDriverByID("A2")
	return runGridDriver(cfg, g)
}

// a2Factors is the σ sweep; plan and renderer share it.
var a2Factors = []int{1, 2, 4, 8, 16}

func a2Plan(cfg Config) GridPlan {
	point := GridPoint{Scenario: "independent", Jobs: 16, Machines: 5}
	plan := GridPlan{ID: "A2"}
	for _, f := range a2Factors {
		plan.Specs = append(plan.Specs, GridSpec{
			Points:    []GridPoint{point},
			Solvers:   []string{"lp-oblivious"},
			Trials:    1,
			Overrides: &ParamOverrides{ReplicationFactor: f},
		})
	}
	return plan
}

func renderA2(cfg Config, results []GridResult) *Table {
	t := &Table{
		ID:         "A2",
		Title:      "Ablation: replication factor σ sweep (independent jobs, LP schedule)",
		PaperBound: "§4.1 uses σ = 16·log n for the 1−1/n² completion bound",
		Header:     []string{"repl factor", "prefix len", "E[makespan]"},
	}
	for i, r := range results {
		if r.Err != nil {
			continue
		}
		t.Rows = append(t.Rows, []string{d(a2Factors[i]), d(r.PrefixLen), f2(r.Mean)})
	}
	t.Notes = "Small σ is much shorter and the round-robin tail safely absorbs stragglers — the paper's constant is set for the worst case, not the average one."
	return t
}

// A3 ablates the Theorem 4.1 rounding against naive ceil-everything
// rounding: load and per-job mass.
func A3(cfg Config) *Table {
	t := &Table{
		ID:         "A3",
		Title:      "Ablation: Thm 4.1 flow rounding vs. naive ceiling",
		PaperBound: "Thm 4.1: load ≤ O(log m)·T* with mass ≥ 1/2",
		Header:     []string{"n", "m", "T*", "flow: load", "flow: min mass", "naive: load", "naive: min mass"},
	}
	type pt struct{ n, m int }
	sweep := []pt{{8, 12}, {12, 20}, {16, 32}}
	type row struct {
		cells []string
		ok    bool
	}
	rows := runCells(cfg, len(sweep), func(i int) row {
		p := sweep[i]
		seed := sim.SeedFor(cfg.Seed, "A3", int64(p.n), int64(p.m))
		in := workload.Independent(workload.Config{Jobs: p.n, Machines: p.m, Lo: 0.02, Hi: 0.3, Seed: seed})
		chains := make([][]int, p.n)
		for j := 0; j < p.n; j++ {
			chains[j] = []int{j}
		}
		fs, err := core.SolveLP1(in, chains, 0.5)
		if err != nil {
			return row{}
		}
		ints, err := core.RoundLP(in, fs, 0.5)
		if err != nil {
			return row{}
		}
		// Naive: ceil every positive entry.
		naive := &core.IntSolution{Jobs: fs.Jobs, X: make([][]int, in.M)}
		for mi := range naive.X {
			naive.X[mi] = make([]int, in.N)
			for j := 0; j < in.N; j++ {
				if fs.X[mi][j] > 1e-12 {
					naive.X[mi][j] = ceilInt(fs.X[mi][j])
				}
			}
		}
		return row{cells: []string{
			d(p.n), d(p.m), f2(fs.T),
			d(ints.Load()), f3(ints.MinMass(in)),
			d(naive.Load()), f3(naive.MinMass(in)),
		}, ok: true}
	})
	for _, r := range rows {
		if r.ok {
			t.Rows = append(t.Rows, r.cells)
		}
	}
	t.Notes = "Naive ceiling keeps mass but can blow the load up to the number of fractional entries per machine; the flow rounding concentrates steps into one probability bucket per job."
	return t
}

func ceilInt(x float64) int {
	c := int(x)
	if float64(c) < x {
		c++
	}
	return c
}
