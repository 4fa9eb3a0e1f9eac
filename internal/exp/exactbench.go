package exp

import (
	"fmt"
	"math"

	"suu/internal/model"
	"suu/internal/opt"
	"suu/internal/sim"
	"suu/internal/workload"
)

// ExactSolverBench is one row of the exact_solver section of
// BENCH_sim.json: the layered value iteration's wall-clock and
// state-space shape on one family, with the exhaustive Malewicz-style
// DP timed side by side where that oracle is feasible. The CI
// bench-smoke gate asserts the 12×4 speedup separately; this section
// is the accumulating record of where the exact frontier sits on the
// machine that produced it.
type ExactSolverBench struct {
	Family   string `json:"family"`
	Jobs     int    `json:"jobs"`
	Machines int    `json:"machines"`
	// States, Layers, MaxEligible, Transitions and ClosedForm describe
	// the solved lattice: closed states, nonempty popcount layers, the
	// widest eligible antichain, materialized successor-table entries,
	// and states answered by the ≤2-unfinished closed forms.
	States      int   `json:"states"`
	Layers      int   `json:"layers"`
	MaxEligible int   `json:"max_eligible"`
	Transitions int64 `json:"transitions"`
	ClosedForm  int   `json:"closed_form_states"`
	// ExactValue is the optimal expected makespan the run certified.
	ExactValue float64 `json:"exact_value"`
	// BuildMS is the value iteration's wall-clock, the median of the
	// sampled runs; StatesPerSec normalizes it by lattice size.
	BuildMS      float64 `json:"build_ms"`
	StatesPerSec float64 `json:"states_per_sec"`
	// OracleMS times the exhaustive DP on the same instance (single
	// run — it is the slow side by construction); SpeedupVsOracle =
	// OracleMS/BuildMS. Zero when the oracle was skipped or failed.
	OracleMS        float64 `json:"oracle_ms,omitempty"`
	SpeedupVsOracle float64 `json:"speedup_vs_oracle,omitempty"`
	Error           string  `json:"error,omitempty"`
}

// exactSolverCases are the families the exact_solver section records:
// the old DP's comfort zone (8×3), the value iteration's showcase
// (12×4, 4096 states — the CI gate family), and two structured n≈20
// instances whose down-set lattices the precedence collapses to a few
// thousand states. The oracle runs where its k^m·2^k scan finishes in
// seconds; on 12×4 that is minutes, so the full suite times it and
// quick mode records the value iteration alone.
func exactSolverCases(cfg Config) []struct {
	family string
	in     *model.Instance
	oracle bool
} {
	seed := sim.SeedFor(cfg.Seed, "bench-exact")
	return []struct {
		family string
		in     *model.Instance
		oracle bool
	}{
		{"independent-8x3", workload.Independent(workload.Config{Jobs: 8, Machines: 3, Seed: seed}), true},
		{"independent-12x4", workload.Independent(workload.Config{Jobs: 12, Machines: 4, Seed: seed}), !cfg.Quick},
		{"chains-20x4", workload.Chains(workload.Config{Jobs: 20, Machines: 4, Seed: seed}, 5), false},
		{"outforest-17x4", workload.OutTree(workload.Config{Jobs: 17, Machines: 4, Seed: seed}), false},
	}
}

// ExactSolverBenchmarks measures the parallel value iteration per
// family and, where marked, the exhaustive DP oracle on the same
// instance.
func ExactSolverBenchmarks(cfg Config) []ExactSolverBench {
	var out []ExactSolverBench
	for _, bc := range exactSolverCases(cfg) {
		out = append(out, exactSolverRow(bc.family, bc.in, bc.oracle))
	}
	return out
}

// exactSolverRow times the parallel value iteration on in and, with
// oracle, the exhaustive DP once (it is the slow side by
// construction), requiring the two to agree on the optimum.
func exactSolverRow(family string, in *model.Instance, oracle bool) ExactSolverBench {
	row := ExactSolverBench{Family: family, Jobs: in.N, Machines: in.M}
	var st *opt.Stats
	tm, err := sample(timedPairs, false, func() error {
		var err error
		_, row.ExactValue, st, err = opt.OptimalRegimenParallel(in, 0)
		return err
	}, nil)
	if err != nil {
		row.Error = err.Error()
		return row
	}
	row.States, row.Layers, row.MaxEligible = st.States, st.Layers, st.MaxEligible
	row.Transitions, row.ClosedForm = st.Transitions, st.ClosedForm
	row.BuildMS = tm.A.Median
	row.StatesPerSec = perSec(st.States, row.BuildMS)
	if !oracle {
		return row
	}
	var ov float64
	ms, err := clock(func() error {
		var err error
		_, ov, err = opt.OptimalRegimenExhaustive(in)
		return err
	})
	switch {
	case err != nil:
		row.Error = "exhaustive DP: " + err.Error()
	case math.Abs(row.ExactValue-ov) > 1e-9:
		row.Error = fmt.Sprintf("value iteration %v disagrees with the exhaustive DP %v", row.ExactValue, ov)
	default:
		row.OracleMS, row.SpeedupVsOracle = ms, ms/row.BuildMS
	}
	return row
}

// ExactSolverTable renders the exact_solver rows for suu-bench -exact.
func ExactSolverTable(rows []ExactSolverBench) *Table {
	t := &Table{
		ID:         "EXACT",
		Title:      "Exact solver: layered value iteration vs exhaustive DP",
		PaperBound: "engineering record, not a paper claim (T_OPT itself is Malewicz's recurrence)",
		Header:     []string{"family", "n", "m", "states", "layers", "max elig", "transitions", "closed-form", "T_OPT", "VI ms", "states/s", "oracle ms", "speedup"},
	}
	for _, b := range rows {
		if b.Error != "" {
			t.Rows = append(t.Rows, []string{b.Family, d(b.Jobs), d(b.Machines), "—", "—", "—", "—", "—", "—", "—", "—", "—", "error: " + b.Error})
			continue
		}
		oracleMS, speedup := "skipped", "—"
		if b.OracleMS > 0 {
			oracleMS, speedup = f2(b.OracleMS), f2(b.SpeedupVsOracle)+"x"
		}
		t.Rows = append(t.Rows, []string{
			b.Family, d(b.Jobs), d(b.Machines), d(b.States), d(b.Layers), d(b.MaxEligible),
			d(int(b.Transitions)), d(b.ClosedForm), f2(b.ExactValue), f2(b.BuildMS),
			f2(b.StatesPerSec), oracleMS, speedup,
		})
	}
	t.Notes = "The oracle column times the exhaustive k^m-assignment DP on the same instance; 'skipped' marks families beyond its reach (or quick mode on 12×4, where it takes minutes). " +
		"closed-form counts states answered by the ≤2-unfinished geometric/inclusion-exclusion formulas instead of value iteration."
	return t
}
