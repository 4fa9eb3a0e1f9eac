package exp

import (
	"math"
	"math/rand"

	"suu/internal/core"
	"suu/internal/sim"
	"suu/internal/solve"
	"suu/internal/stats"
	"suu/internal/workload"
)

// T6 validates Theorem 4.4: the chains pipeline stays within the
// polylog bound of the LP lower bound across n, m, and chain-count
// sweeps.
func T6(cfg Config) *Table {
	t := &Table{
		ID:         "T6",
		Title:      "Disjoint-chains pipeline ratio vs. LP lower bound",
		PaperBound: "Theorem 4.4: E[makespan] ≤ O(log m·log n·log(n+m)/loglog(n+m))·T_OPT",
		Header:     []string{"n", "m", "chains", "T*", "Πmax", "congestion", "mean ratio", "ratio/bound-shape"},
	}
	type pt struct{ n, m, c int }
	sweep := []pt{{6, 3, 2}, {12, 4, 3}, {24, 6, 4}, {48, 8, 6}}
	if cfg.Quick {
		sweep = sweep[:3]
	}
	trials := cfg.trials()
	type cell struct {
		ratio, tstar  float64
		maxLoad, cong int
		ok            bool
	}
	cells := runSweep(cfg, len(sweep), trials, func(s, k int) cell {
		p := sweep[s]
		seed := sim.SeedFor(cfg.Seed, "T6", int64(p.n), int64(p.m), int64(p.c), int64(k))
		in := workload.Chains(workload.Config{Jobs: p.n, Machines: p.m, Seed: seed}, p.c)
		sol, _ := solve.Get("chains")
		res, err := sol.Build(in, paramsWithSeed(sim.SeedFor(seed, "build")))
		if err != nil {
			return cell{}
		}
		mean := estimate(in, res.Policy, cfg.reps(), sim.SeedFor(seed, "sim"))
		if mean < 0 || res.LowerBound <= 0 {
			return cell{}
		}
		return cell{
			ratio:   mean / res.LowerBound,
			tstar:   res.LPValue,
			maxLoad: res.MaxLoad,
			cong:    res.Congestion,
			ok:      true,
		}
	})
	for s, p := range sweep {
		var ratios []float64
		var tstar float64
		maxLoad, cong := 0, 0
		for _, c := range cells[s] {
			if !c.ok {
				continue
			}
			ratios = append(ratios, c.ratio)
			tstar, maxLoad, cong = c.tstar, c.maxLoad, c.cong
		}
		if len(ratios) == 0 {
			continue
		}
		mr := stats.Mean(ratios)
		shape := boundShapeChains(p.n, p.m)
		t.Rows = append(t.Rows, []string{
			d(p.n), d(p.m), d(p.c), f2(tstar), d(maxLoad), d(cong), f2(mr), f2(mr / shape),
		})
	}
	t.Notes = "bound-shape = log₂m·log₂n·log₂(n+m)/loglog₂(n+m); the normalized column should stay roughly flat."
	return t
}

func boundShapeChains(n, m int) float64 {
	lm := stats.Log2(float64(m) + 1)
	ln := stats.Log2(float64(n) + 1)
	lnm := stats.Log2(float64(n+m) + 1)
	ll := math.Log2(lnm + 2)
	return lm * ln * lnm / ll
}

// T7 validates the random-delay congestion lemma of Section 4.1
// (after Shmoys–Stein–Wein): delays drawn from [0, Π_max] reduce the
// max per-step machine congestion to O(log(n+m)/loglog(n+m)). It also
// reports the flattened length with and without the delays.
func T7(cfg Config) *Table {
	t := &Table{
		ID:         "T7",
		Title:      "Random-delay congestion on chain pseudo-schedules",
		PaperBound: "§4.1: with delays from [0,Π_max], congestion = O(log(n+m)/loglog(n+m)) whp",
		Header:     []string{"n", "m", "chains", "Πmax", "cong (no delay)", "cong (delayed)", "log(n+m)/loglog(n+m)", "len (no delay)", "len (delayed)"},
	}
	type pt struct{ n, m, c int }
	sweep := []pt{{12, 3, 4}, {24, 4, 6}, {48, 6, 8}, {96, 8, 12}}
	if cfg.Quick {
		sweep = sweep[:3]
	}
	type row struct {
		cells []string
		ok    bool
	}
	rows := runCells(cfg, len(sweep), func(i int) row {
		p := sweep[i]
		seed := sim.SeedFor(cfg.Seed, "T7", int64(p.n), int64(p.m), int64(p.c))
		in := workload.Chains(workload.Config{Jobs: p.n, Machines: p.m, Seed: seed}, p.c)
		chains, err := in.Prec.Chains()
		if err != nil {
			return row{}
		}
		fs, err := core.SolveLP1(in, chains, 0.5)
		if err != nil {
			return row{}
		}
		ints, err := core.RoundLP(in, fs, 0.5)
		if err != nil {
			return row{}
		}
		pseudo := core.BuildPseudo(in, chains, ints.X)
		before := pseudo.MaxCongestion()
		maxLoad := pseudo.MaxLoad()
		// SplitMix64 via sim.Stream, not math/rand's LCG: every derived
		// stream in the drivers goes through sim.SeedFor so cells stay
		// hermetic across process shards.
		prng := rand.New(sim.NewStream(sim.SeedFor(seed, "delays")))
		delays, after := pseudo.BestDelays(maxLoad, 64, prng)
		lnm := stats.Log2(float64(p.n+p.m) + 1)
		shape := lnm / math.Log2(lnm+2)
		return row{cells: []string{
			d(p.n), d(p.m), d(p.c), d(maxLoad), d(before), d(after), f2(shape),
			d(pseudo.Flatten(nil).Len()), d(pseudo.Flatten(delays).Len()),
		}, ok: true}
	})
	for _, r := range rows {
		if r.ok {
			t.Rows = append(t.Rows, r.cells)
		}
	}
	t.Notes = "The delayed congestion should track the shape column (up to constants) while the undelayed one grows with the chain count. The len columns are the flattened prefix: each occupied step is expanded by its congestion and the steps no delayed track occupies are dropped, so delays trade fewer collisions for a longer span."
	return t
}
