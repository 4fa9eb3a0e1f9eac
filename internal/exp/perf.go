package exp

import (
	"suu/internal/core"
	"suu/internal/sim"
	"suu/internal/workload"
)

// T12 profiles the substrate: the (LP1) simplex's working size and
// iterations across instance sizes. Not a paper claim — it documents
// that the stdlib-only solver stack stays comfortably polynomial at
// laptop scale. The table holds counts only; the wall-clock of the
// same work lives in BENCH_sim.json (lp_bench, solver_build,
// benchmarks; see SimBenchmarks).
func T12(cfg Config) *Table {
	t := &Table{
		ID:         "T12",
		Title:      "Substrate size: LP1 simplex",
		PaperBound: "polynomial time (the paper's claim); measured here",
		Header:     []string{"n", "m", "LP vars", "LP rows", "simplex iters"},
	}
	type pt struct{ n, m, c int }
	sweep := []pt{{12, 4, 3}, {24, 6, 4}, {48, 8, 6}, {96, 12, 8}}
	if cfg.Quick {
		sweep = sweep[:3]
	}
	for _, p := range sweep {
		seed := sim.SeedFor(cfg.Seed, "T12", int64(p.n), int64(p.m), int64(p.c))
		in := workload.Chains(workload.Config{Jobs: p.n, Machines: p.m, Seed: seed}, p.c)
		chains, err := in.Prec.Chains()
		if err != nil {
			continue
		}
		fs, err := core.SolveLP1(in, chains, 0.5)
		if err != nil {
			continue
		}
		t.Rows = append(t.Rows, []string{d(p.n), d(p.m), d(fs.Cols), d(fs.Rows), d(fs.Iterations)})
	}
	t.Notes = "LP vars/rows are the sparse solver's working dimensions (window rows are generated lazily, so the row count " +
		"reflects the binding set, not the full formulation). Iterations grow roughly linearly with the working row count. " +
		"Timings of the same work are in BENCH_sim.json's lp_bench, solver_build and benchmarks sections."
	return t
}
