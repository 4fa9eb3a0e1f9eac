package exp

import (
	"math"

	"suu/internal/core"
	"suu/internal/model"
	"suu/internal/opt"
	"suu/internal/sched"
	"suu/internal/sim"
	"suu/internal/solve"
	"suu/internal/stats"
	"suu/internal/workload"
)

// T1 validates Theorem 3.2: MSM-ALG achieves at least 1/3 of the
// brute-force MaxSumMass optimum.
func T1(cfg Config) *Table {
	t := &Table{
		ID:         "T1",
		Title:      "MSM-ALG approximation ratio vs. brute-force optimum",
		PaperBound: "Theorem 3.2: ratio ≥ 1/3",
		Header:     []string{"n", "m", "trials", "min ratio", "mean ratio"},
	}
	sizes := [][2]int{{3, 3}, {4, 4}, {5, 3}, {6, 2}, {4, 6}}
	trials := 10 * cfg.trials()
	ratios := runSweep(cfg, len(sizes), trials, func(s, k int) float64 {
		n, m := sizes[s][0], sizes[s][1]
		seed := sim.SeedFor(cfg.Seed, "T1", int64(n), int64(m), int64(k))
		in := workload.Independent(workload.Config{Jobs: n, Machines: m, Seed: seed})
		active := make([]bool, n)
		for j := range active {
			active[j] = true
		}
		got := core.SumMass(in, core.MSMAlg(in, active))
		_, best := core.BruteForceMSM(in, active)
		return got / best
	})
	for s, nm := range sizes {
		minR, sumR := 1.0, 0.0
		for _, r := range ratios[s] {
			if r < minR {
				minR = r
			}
			sumR += r
		}
		t.Rows = append(t.Rows, []string{d(nm[0]), d(nm[1]), d(trials), f3(minR), f3(sumR / float64(trials))})
	}
	t.Notes = "Every observed ratio must be ≥ 1/3 ≈ 0.333; in practice the greedy sits far above the bound."
	return t
}

// T2 validates Theorem 2.2: under the optimal regimen (expected
// makespan T_OPT), every job accumulates mass ≥ 1/4 within 2·T_OPT
// steps with probability ≥ 1/4.
func T2(cfg Config) *Table {
	t := &Table{
		ID:         "T2",
		Title:      "Mass accumulation within 2·T_OPT under the optimal schedule",
		PaperBound: "Theorem 2.2: Pr[mass ≥ 1/4 by step 2T] ≥ 1/4 for every job",
		Header:     []string{"n", "m", "T_OPT", "min_j Pr[mass ≥ 1/4]", "bound"},
	}
	sizes := [][2]int{{3, 2}, {4, 2}, {5, 3}, {6, 2}}
	type row struct {
		topt, minF float64
		ok         bool
	}
	rows := runCells(cfg, len(sizes), func(i int) row {
		n, m := sizes[i][0], sizes[i][1]
		seed := sim.SeedFor(cfg.Seed, "T2", int64(n), int64(m))
		in := workload.Independent(workload.Config{Jobs: n, Machines: m, Seed: seed})
		reg, topt, err := optRegimen(in)
		if err != nil {
			return row{}
		}
		horizon := int(math.Ceil(2 * topt))
		fr := sim.MassWithinHorizon(in, reg, horizon, 40*cfg.reps(), 0.25, sim.SeedFor(seed, "sim"))
		minF := 1.0
		for _, f := range fr {
			if f < minF {
				minF = f
			}
		}
		return row{topt, minF, true}
	})
	for i, r := range rows {
		if !r.ok {
			continue
		}
		t.Rows = append(t.Rows, []string{d(sizes[i][0]), d(sizes[i][1]), f2(r.topt), f3(r.minF), "0.250"})
	}
	t.Notes = "The theorem holds for any schedule; we instantiate it with the exactly-optimal regimen."
	return t
}

// T3 validates Theorem 3.3: the adaptive greedy SUU-I-ALG stays within
// an O(log n) factor of optimal as n grows.
func T3(cfg Config) *Table {
	t := &Table{
		ID:         "T3",
		Title:      "Adaptive SUU-I-ALG ratio vs. instance size (independent jobs)",
		PaperBound: "Theorem 3.3: E[makespan] ≤ O(log n)·T_OPT",
		Header:     []string{"n", "m", "baseline", "T_OPT", "mean ratio", "ratio/log₂n"},
	}
	// n=12, m=4 is the value iteration's showcase row: its 2^12-state
	// lattice is far beyond the exhaustive DP but well inside the
	// layered solver, so both the greedy's expectation and T_OPT are
	// exact and the reported ratio is the true optimality gap, not a
	// gap-to-lower-bound.
	sizes := [][2]int{{4, 3}, {6, 3}, {8, 3}, {12, 4}, {16, 6}, {32, 8}, {64, 8}}
	if cfg.Quick {
		sizes = sizes[:5]
	}
	trials := cfg.trials()
	type cell struct {
		ratio float64
		opt   float64
		exact bool
		ok    bool
	}
	cells := runSweep(cfg, len(sizes), trials, func(s, k int) cell {
		n, m := sizes[s][0], sizes[s][1]
		seed := sim.SeedFor(cfg.Seed, "T3", int64(n), int64(m), int64(k))
		in := workload.Independent(workload.Config{Jobs: n, Machines: m, Seed: seed})
		lb, exact := exactOpt(in)
		if !exact {
			fs, err := core.SolveLP2(in, seqJobs(n), 0.5)
			if err != nil {
				return cell{}
			}
			lb = core.CombinedLowerBound(in, fs.T)
		}
		if lb <= 0 {
			return cell{}
		}
		// The adaptive greedy is stationary (its assignment depends only
		// on the unfinished set), so evaluate it exactly wherever T_OPT
		// itself is exact; otherwise simulate.
		mean := -1.0
		if exact {
			order := core.NewPairOrder(in)
			if reg, err := opt.GreedyRegimen(in, func(unf, elig []bool) sched.Assignment {
				return order.MSM(elig, nil)
			}); err == nil {
				if v, err := opt.ExactRegimen(in, reg); err == nil && !math.IsInf(v, 1) {
					mean = v
				}
			}
		}
		if mean < 0 {
			mean = estimate(in, registryPolicy("adaptive", in, seed), cfg.reps(), sim.SeedFor(seed, "sim"))
		}
		if mean < 0 {
			return cell{}
		}
		return cell{ratio: mean / lb, opt: lb, exact: exact, ok: true}
	})
	for s, nm := range sizes {
		var ratios, opts []float64
		exactAll := true
		for _, c := range cells[s] {
			if !c.ok {
				continue
			}
			ratios = append(ratios, c.ratio)
			opts = append(opts, c.opt)
			exactAll = exactAll && c.exact
		}
		if len(ratios) == 0 {
			continue
		}
		baseline, topt := "combined LB", "—"
		if exactAll {
			baseline, topt = "exact OPT", f2(stats.Mean(opts))
		}
		mr := stats.Mean(ratios)
		t.Rows = append(t.Rows, []string{d(nm[0]), d(nm[1]), baseline, topt, f2(mr), f2(mr / stats.Log2(float64(nm[0])+1))})
	}
	t.Notes = "Rows with an exact-OPT baseline (now including 12×4, via the layered value iteration) report the true optimality gap; against the combined lower bound the ratio still inflates by the LB gap. The normalized column should stay roughly flat if the O(log n) shape holds."
	return t
}

// T4 validates Lemma 3.5 / Theorem 3.6: the combinatorial oblivious
// schedule SUU-I-OBL stays within O(log² n) of optimal.
func T4(cfg Config) *Table {
	t := &Table{
		ID:         "T4",
		Title:      "Combinatorial oblivious SUU-I-OBL ratio vs. instance size",
		PaperBound: "Theorem 3.6: E[makespan] ≤ O(log² n)·T_OPT",
		Header:     []string{"n", "m", "core len", "mean ratio", "ratio/log₂²n"},
	}
	sizes := [][2]int{{4, 3}, {8, 3}, {16, 6}, {32, 8}}
	if cfg.Quick {
		sizes = sizes[:3]
	}
	trials := cfg.trials()
	type cell struct {
		ratio   float64
		coreLen int
		ok      bool
	}
	cells := runSweep(cfg, len(sizes), trials, func(s, k int) cell {
		n, m := sizes[s][0], sizes[s][1]
		seed := sim.SeedFor(cfg.Seed, "T4", int64(n), int64(m), int64(k))
		in := workload.Independent(workload.Config{Jobs: n, Machines: m, Seed: seed})
		comb, _ := solve.Get("comb-oblivious")
		res, err := comb.Build(in, paramsWithSeed(sim.SeedFor(seed, "build")))
		if err != nil {
			return cell{}
		}
		mean := estimate(in, res.Policy, cfg.reps(), sim.SeedFor(seed, "sim"))
		if mean < 0 {
			return cell{}
		}
		lb := lowerBound(in, n)
		if lb <= 0 {
			return cell{}
		}
		return cell{ratio: mean / lb, coreLen: res.CoreLength, ok: true}
	})
	for s, nm := range sizes {
		var ratios []float64
		coreLen := 0
		for _, c := range cells[s] {
			if !c.ok {
				continue
			}
			ratios = append(ratios, c.ratio)
			coreLen = c.coreLen
		}
		if len(ratios) == 0 {
			continue
		}
		mr := stats.Mean(ratios)
		l := stats.Log2(float64(nm[0]) + 1)
		t.Rows = append(t.Rows, []string{d(nm[0]), d(nm[1]), d(coreLen), f2(mr), f2(mr / (l * l))})
	}
	return t
}

// T5 validates Theorem 4.5 and compares the LP-based oblivious
// schedule against the combinatorial one.
func T5(cfg Config) *Table {
	t := &Table{
		ID:         "T5",
		Title:      "LP-based oblivious schedule (Thm 4.5) vs. combinatorial (Thm 3.6)",
		PaperBound: "Theorem 4.5: E[makespan] ≤ O(log n · log min(n,m))·T_OPT",
		Header:     []string{"n", "m", "LP T*", "lp-obl ratio", "comb-obl ratio", "lp/comb"},
	}
	sizes := [][2]int{{4, 3}, {8, 4}, {16, 6}, {32, 8}}
	if cfg.Quick {
		sizes = sizes[:3]
	}
	trials := cfg.trials()
	type cell struct {
		lpR, combR, tstar float64
		ok                bool
	}
	cells := runSweep(cfg, len(sizes), trials, func(s, k int) cell {
		n, m := sizes[s][0], sizes[s][1]
		seed := sim.SeedFor(cfg.Seed, "T5", int64(n), int64(m), int64(k))
		in := workload.Independent(workload.Config{Jobs: n, Machines: m, Seed: seed})
		lp, _ := solve.Get("lp-oblivious")
		lres, err := lp.Build(in, paramsWithSeed(sim.SeedFor(seed, "build")))
		if err != nil {
			return cell{}
		}
		comb, _ := solve.Get("comb-oblivious")
		cres, err := comb.Build(in, paramsWithSeed(sim.SeedFor(seed, "build")))
		if err != nil {
			return cell{}
		}
		lb := lowerBound(in, n)
		if lb <= 0 {
			return cell{}
		}
		lpMean := estimate(in, lres.Policy, cfg.reps(), sim.SeedFor(seed, "sim"))
		combMean := estimate(in, cres.Policy, cfg.reps(), sim.SeedFor(seed, "sim"))
		if lpMean <= 0 || combMean <= 0 {
			return cell{}
		}
		return cell{lpR: lpMean / lb, combR: combMean / lb, tstar: lres.LPValue, ok: true}
	})
	for s, nm := range sizes {
		var lpR, combR []float64
		tstar := 0.0
		for _, c := range cells[s] {
			if !c.ok {
				continue
			}
			lpR = append(lpR, c.lpR)
			combR = append(combR, c.combR)
			tstar = c.tstar
		}
		if len(lpR) == 0 || len(combR) == 0 {
			continue
		}
		a, b := stats.Mean(lpR), stats.Mean(combR)
		t.Rows = append(t.Rows, []string{d(nm[0]), d(nm[1]), f2(tstar), f2(a), f2(b), f2(a / b)})
	}
	t.Notes = "The combinatorial schedule cycles its prefix (fast retries); the LP schedule pays the σ-replication up front. The theorems bound both; the comparison reports the practical trade."
	return t
}

// helpers shared by the experiments.

func seqJobs(n int) []int {
	jobs := make([]int, n)
	for j := range jobs {
		jobs[j] = j
	}
	return jobs
}

func paramsWithSeed(seed int64) core.Params {
	p := core.DefaultParams()
	p.Seed = seed
	return p
}

// registryPolicy builds the named registry solver's policy; drivers
// use it for the adaptive and baseline policies whose construction
// cannot fail.
func registryPolicy(id string, in *model.Instance, seed int64) sched.Policy {
	s, ok := solve.Get(id)
	if !ok {
		panic("exp: solver " + id + " not registered")
	}
	res, err := s.Build(in, paramsWithSeed(seed))
	if err != nil {
		panic("exp: " + id + ": " + err.Error())
	}
	return res.Policy
}

// lowerBound returns exact OPT for small instances, else the LP2/16
// bound.
func lowerBound(in *model.Instance, n int) float64 {
	if v, ok := exactOpt(in); ok {
		return v
	}
	fs, err := core.SolveLP2(in, seqJobs(n), 0.5)
	if err != nil {
		return -1
	}
	return core.CombinedLowerBound(in, fs.T)
}

func optRegimen(in *model.Instance) (*sched.Regimen, float64, error) {
	return opt.OptimalRegimen(in)
}
