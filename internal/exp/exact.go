package exp

import (
	"suu/internal/core"
	"suu/internal/opt"
	"suu/internal/sched"
	"suu/internal/sim"
	"suu/internal/solve"
	"suu/internal/stats"
	"suu/internal/workload"
)

// T11 measures the exact price of obliviousness on small instances:
// expected makespans computed by full state-distribution propagation
// (no Monte Carlo noise) for the optimal regimen, the adaptive greedy
// (frozen as a regimen) and both oblivious constructions.
func T11(cfg Config) *Table {
	t := &Table{
		ID:         "T11",
		Title:      "Exact price of obliviousness (state-distribution evaluation, no sampling)",
		PaperBound: "adaptive within O(log n) (Thm 3.3); oblivious within O(log² n)/O(log n·log min) (Thms 3.6/4.5)",
		Header:     []string{"n", "m", "exact OPT", "adaptive", "comb-obl", "lp-obl (σ=1)", "obl/OPT"},
	}
	sizes := [][2]int{{3, 2}, {4, 2}, {5, 3}, {6, 3}}
	if cfg.Quick {
		sizes = sizes[:3]
	}
	trials := cfg.trials()
	type cell struct {
		opt, ada, comb, lp float64
		ok                 bool
	}
	cells := runSweep(cfg, len(sizes), trials, func(s, k int) cell {
		n, m := sizes[s][0], sizes[s][1]
		seed := sim.SeedFor(cfg.Seed, "T11", int64(n), int64(m), int64(k))
		in := workload.Independent(workload.Config{Jobs: n, Machines: m, Seed: seed})
		_, topt, err := opt.OptimalRegimen(in)
		if err != nil {
			return cell{}
		}
		order := core.NewPairOrder(in)
		reg, err := opt.GreedyRegimen(in, func(unf, elig []bool) sched.Assignment {
			return order.MSM(elig, nil)
		})
		if err != nil {
			return cell{}
		}
		ada, err := opt.ExactRegimen(in, reg)
		if err != nil {
			return cell{}
		}
		combSolver, _ := solve.Get("comb-oblivious")
		comb, err := combSolver.Build(in, paramsWithSeed(sim.SeedFor(seed, "build")))
		if err != nil {
			return cell{}
		}
		combE, res1, err := opt.ExactOblivious(in, comb.Policy.(*sched.Oblivious), 100000, 1e-10)
		if err != nil || res1 > 1e-6 {
			return cell{}
		}
		par := paramsWithSeed(sim.SeedFor(seed, "build"))
		par.ReplicationFactor = 1 // keep the exact horizon tractable
		lpSolver, _ := solve.Get("lp-oblivious")
		lpres, err := lpSolver.Build(in, par)
		if err != nil {
			return cell{}
		}
		lpE, res2, err := opt.ExactOblivious(in, lpres.Policy.(*sched.Oblivious), 100000, 1e-10)
		if err != nil || res2 > 1e-6 {
			return cell{}
		}
		return cell{opt: topt, ada: ada, comb: combE, lp: lpE, ok: true}
	})
	for s, nm := range sizes {
		var optV, adaV, combV, lpV []float64
		for _, c := range cells[s] {
			if !c.ok {
				continue
			}
			optV = append(optV, c.opt)
			adaV = append(adaV, c.ada)
			combV = append(combV, c.comb)
			lpV = append(lpV, c.lp)
		}
		if len(optV) == 0 {
			continue
		}
		o, a, c, l := stats.Mean(optV), stats.Mean(adaV), stats.Mean(combV), stats.Mean(lpV)
		best := c
		if l < best {
			best = l
		}
		t.Rows = append(t.Rows, []string{d(nm[0]), d(nm[1]), f2(o), f2(a), f2(c), f2(l), f2(best / o)})
	}
	t.Notes = "Exact expectations via the unfinished-set Markov chain; the lp-obl column uses σ=1 so the horizon stays tractable (A2 shows σ scales it linearly). obl/OPT is the better oblivious construction's exact ratio — the measurable price of scheduling without feedback."
	return t
}
