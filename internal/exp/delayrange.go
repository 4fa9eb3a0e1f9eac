package exp

import (
	"suu/internal/core"
	"suu/internal/sim"
	"suu/internal/stats"
)

// a5Sizes is the sweep; plan and renderer share it.
func a5Sizes(cfg Config) [][2]int {
	sizes := [][2]int{{12, 4}, {24, 6}, {48, 8}}
	if cfg.Quick {
		sizes = sizes[:2]
	}
	return sizes
}

// a5Plan declares A5, which ablates the delay range: Theorem 4.4/4.7
// draw chain delays from [0, Π_max]; Theorem 4.8's tree analysis
// allows [0, Π_max/log n]. Narrower ranges give shorter delayed
// prefixes at (theoretically) higher congestion; this table measures
// both effects on out-trees by comparing the two SUUForest code paths
// end to end. The log-div variant is a standard grid cell (forest
// solver, estimated); the full-range variant needs per-block reruns
// the registry does not expose, so it runs the "a5-full" custom cell
// evaluator — which is what makes A5 shardable despite its bespoke
// cells.
//
// The plan is two specs per size over the same out-tree point: the
// shipping log-div path as plain cells, the full-range rebuild
// through the custom evaluator. Identical points mean identical
// instances and build seeds across the pair, so the comparison runs
// on the very same decomposition blocks.
func a5Plan(cfg Config) GridPlan {
	plan := GridPlan{ID: "A5"}
	trials := cfg.trials()
	for _, nm := range a5Sizes(cfg) {
		p := GridPoint{Scenario: "out-tree", Jobs: nm[0], Machines: nm[1]}
		plan.Specs = append(plan.Specs,
			GridSpec{Points: []GridPoint{p}, Solvers: []string{"forest"}, Trials: trials},
			GridSpec{Points: []GridPoint{p}, Solvers: []string{"forest"}, Trials: trials, Eval: "a5-full"},
		)
	}
	return plan
}

// evalA5FullRange rebuilds the cell's decomposition blocks through the
// chains pipeline (Thm 4.4's full [0, Π_max] delay range) and reports
// the summed prefix as PrefixLen with the forest run's lower bound —
// the ratio renderA5 derives. Mean stays -1: the variant's makespan is
// essentially its prefix length, which is the paper's comparison.
// All randomness derives from the cell's coordinates, so the cell
// shards like any other.
func evalA5FullRange(cfg Config, c GridCell) ShardCell {
	r := cellRow(cfg, c)
	in, seed, err := cellInstance(cfg, c)
	if err != nil {
		return r.fail(nil, err)
	}
	par := paramsWithSeed(sim.SeedFor(seed, c.Solver))
	divRes, err := core.SUUForest(in, par)
	if err != nil {
		return r.fail(in, err)
	}
	fullPrefix := 0
	for _, blk := range divRes.Decomposition.Blocks {
		br, err := core.SUUChainsOnBlock(in, blk.Chains, par)
		if err != nil {
			return r.fail(in, err)
		}
		fullPrefix += br.Schedule.Len()
	}
	r.Class = in.Prec.Classify().String()
	r.Kind = "forest blocks, full-range delays (Thm 4.4)"
	r.Mean = -1
	r.LowerBound = divRes.LowerBound
	r.PrefixLen = fullPrefix
	return r
}

// renderA5 pairs each size's (log-div, full-range) spec blocks and
// aggregates trials, reproducing the pre-grid table shape.
func renderA5(cfg Config, results []ShardCell) *Table {
	t := &Table{
		ID:         "A5",
		Title:      "Ablation: delay range [0,Πmax] (Thm 4.4/4.7) vs [0,Πmax/log n] (Thm 4.8)",
		PaperBound: "Thm 4.8 trades congestion for shorter delayed prefixes on tree blocks",
		Header:     []string{"n", "m", "full: prefix", "full: ratio", "log-div: prefix", "log-div: ratio"},
	}
	trials := cfg.trials()
	off := 0
	for _, nm := range a5Sizes(cfg) {
		div := results[off : off+trials]
		full := results[off+trials : off+2*trials]
		off += 2 * trials
		var fullLen, divLen, fullR, divR []float64
		for k := 0; k < trials; k++ {
			if div[k].Err != "" || full[k].Err != "" || div[k].LowerBound <= 0 || full[k].LowerBound <= 0 {
				continue
			}
			fullLen = append(fullLen, float64(full[k].PrefixLen))
			fullR = append(fullR, float64(full[k].PrefixLen)/full[k].LowerBound)
			divLen = append(divLen, float64(div[k].PrefixLen))
			if div[k].Mean > 0 {
				divR = append(divR, div[k].Mean/div[k].LowerBound)
			}
		}
		if len(divLen) == 0 || len(fullLen) == 0 {
			continue
		}
		t.Rows = append(t.Rows, []string{
			d(nm[0]), d(nm[1]),
			f2(stats.Mean(fullLen)), f2(stats.Mean(fullR)),
			f2(stats.Mean(divLen)), f2(stats.Mean(divR)),
		})
	}
	t.Notes = "log-div is the shipping Thm 4.8 path; the full-range column rebuilds the same blocks with Thm 4.4's delay range."
	return t
}
