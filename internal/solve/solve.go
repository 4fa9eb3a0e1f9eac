package solve

import (
	"fmt"
	"sort"
	"strings"

	"suu/internal/core"
	"suu/internal/dag"
	"suu/internal/lp"
	"suu/internal/model"
	"suu/internal/opt"
	"suu/internal/sched"
)

// Result is a built schedule plus the metadata the construction
// certifies. It is the registry-level analogue of the public
// suu.Schedule.
type Result struct {
	// Policy is the runnable schedule (oblivious or adaptive).
	Policy sched.Policy
	// Kind names the construction instance ("chains (Thm 4.4)", ...).
	// For class-dependent solvers (forest) it reflects the class built.
	Kind string
	// Guarantee is the paper's bound for this construction on this
	// instance's class.
	Guarantee string
	// Adaptive reports whether the policy reacts to the unfinished set.
	Adaptive bool
	// PrefixLen is the oblivious prefix length (0 for adaptive).
	PrefixLen int
	// CoreLength is the pre-replication certified prefix (0 for
	// adaptive).
	CoreLength int
	// LPValue is the LP optimum T* when an LP was solved.
	LPValue float64
	// LowerBound is the certified lower bound on T_OPT, when available.
	LowerBound float64
	// ExactValue is the exact optimal expected makespan (optimal solver
	// only).
	ExactValue float64
	// ExactStates and ExactTransitions report the value iteration's
	// closed-state count and materialized successor-table entries
	// (optimal solver only).
	ExactStates      int
	ExactTransitions int64
	// MaxLoad and Congestion are the chain-pipeline diagnostics Π_max
	// and post-delay congestion (chain-based solvers only).
	MaxLoad, Congestion int
	// LPPivots, LPRows, LPCols and LPNnz report the LP solve's effort
	// and dimensions for LP-backed constructions (pivots are summed
	// across a decomposition's blocks; dimensions are the largest
	// block's). Zero for combinatorial and adaptive solvers.
	LPPivots, LPRows, LPCols, LPNnz int
	// LPBasis is the optimal simplex basis of the LP solve, exported so
	// warm-start caches (internal/serve) can re-solve an evicted result
	// for the identical instance pivot-free via core.Params.WarmBasis.
	// Non-nil only for constructions with a single direct sparse solve
	// (lp-oblivious); nil under the dense oracle and on lazy or
	// per-block pipelines.
	LPBasis *lp.Basis
	// Exact holds the value iteration's full search counters (optimal
	// solver only) — ExactStates/ExactTransitions plus layer, pruning
	// and closed-form statistics, surfaced by suu-sim -stats.
	Exact *opt.Stats
	// Blocks and Decomp describe the chain decomposition used
	// (forest solver only): block count and method.
	Blocks int
	Decomp string
	// Detail is a one-line human-readable diagnostic for CLIs.
	Detail string
}

// BuildFunc constructs a schedule for the instance under the given
// parameters.
type BuildFunc func(in *model.Instance, par core.Params) (*Result, error)

// Solver is one registered construction.
type Solver struct {
	// ID is the canonical registry key (also the CLI -alg value).
	ID string
	// Aliases are accepted alternative ids (e.g. "greedy" for
	// "greedy-maxp").
	Aliases []string
	// Theorem cites the paper result implemented ("" for baselines and
	// extensions beyond the paper).
	Theorem string
	// Guarantee states the approximation bound at the solver's
	// strongest applicable class.
	Guarantee string
	// Classes lists the precedence classes the guarantee applies to;
	// nil means the solver runs on any dag.
	Classes []dag.Class
	// Oblivious reports whether the built schedule is a fixed timetable
	// (eligible for Auto dispatch, Gantt rendering, serialization).
	Oblivious bool
	// Parallelizable reports whether simulated repetitions of the built
	// policy may be fanned out across goroutines sharing the policy.
	// It must never be more permissive than the engine's runtime check
	// (sim.Parallelizable, which detects sched.OutcomeObserver); the
	// registry tests enforce the consistency.
	Parallelizable bool
	// Baseline marks the naive reference policies.
	Baseline bool
	// Rank orders Auto dispatch among applicable oblivious solvers
	// (lower = stronger); 0 excludes the solver from Auto.
	Rank int
	// Build constructs the schedule.
	Build BuildFunc
}

// AppliesTo reports whether the solver's guarantee covers class c.
// Solvers with a nil class list run on (and are reported for) any
// class.
func (s Solver) AppliesTo(c dag.Class) bool {
	if len(s.Classes) == 0 {
		return true
	}
	for _, k := range s.Classes {
		if k == c {
			return true
		}
	}
	return false
}

// ClassNames renders the applicable classes for listings ("any" for
// unrestricted solvers).
func (s Solver) ClassNames() string {
	if len(s.Classes) == 0 {
		return "any"
	}
	names := make([]string, len(s.Classes))
	for i, c := range s.Classes {
		names[i] = c.String()
	}
	return strings.Join(names, ", ")
}

var (
	ordered []Solver
	byID    = map[string]int{}
)

// Register adds a solver to the registry. It panics on duplicate or
// empty ids — registration is an init-time programming act, not a
// runtime input.
func Register(s Solver) {
	if s.ID == "" || s.Build == nil {
		panic("solve: solver needs an ID and a Build func")
	}
	keys := append([]string{s.ID}, s.Aliases...)
	for _, k := range keys {
		if _, dup := byID[k]; dup {
			panic(fmt.Sprintf("solve: duplicate solver id %q", k))
		}
	}
	ordered = append(ordered, s)
	for _, k := range keys {
		byID[k] = len(ordered) - 1
	}
}

// Get returns the solver registered under id (or an alias).
func Get(id string) (Solver, bool) {
	i, ok := byID[id]
	if !ok {
		return Solver{}, false
	}
	return ordered[i], true
}

// All returns every registered solver in registration order.
func All() []Solver {
	out := make([]Solver, len(ordered))
	copy(out, ordered)
	return out
}

// IDs returns the canonical solver ids in registration order.
func IDs() []string {
	out := make([]string, len(ordered))
	for i, s := range ordered {
		out[i] = s.ID
	}
	return out
}

// Strongest returns the best-ranked oblivious solver applicable to
// class c — the construction suu.Solve dispatches to. The forest
// solver applies to every class, so Strongest always succeeds on a
// populated registry.
func Strongest(c dag.Class) (Solver, error) {
	best := -1
	for i, s := range ordered {
		if !s.Oblivious || s.Rank == 0 || !s.AppliesTo(c) {
			continue
		}
		if best < 0 || s.Rank < ordered[best].Rank {
			best = i
		}
	}
	if best < 0 {
		return Solver{}, fmt.Errorf("solve: no oblivious solver registered for class %s", c)
	}
	return ordered[best], nil
}

// Auto classifies the instance's precedence dag, picks the strongest
// applicable oblivious construction, and builds it — the registry
// form of the paper's dispatch table.
func Auto(in *model.Instance, par core.Params) (Solver, *Result, error) {
	s, err := Strongest(in.Prec.Classify())
	if err != nil {
		return Solver{}, nil, err
	}
	res, err := s.Build(in, par)
	if err != nil {
		return s, nil, err
	}
	return s, res, nil
}

// Describe renders the registry as an aligned text listing (one
// solver per line: id, theorem, classes, guarantee) — the source of
// cmd/suu-sim -list, generated so the CLI's algorithm list cannot
// drift from the registry.
func Describe() string {
	var b strings.Builder
	w := 0
	for _, s := range ordered {
		if len(s.ID) > w {
			w = len(s.ID)
		}
	}
	fmt.Fprintf(&b, "%-*s  %-9s %-28s %s\n", w, "id", "theorem", "classes", "guarantee")
	for _, s := range ordered {
		th := s.Theorem
		if th == "" {
			th = "—"
		}
		fmt.Fprintf(&b, "%-*s  %-9s %-28s %s\n", w, s.ID, th, s.ClassNames(), s.Guarantee)
		if len(s.Aliases) > 0 {
			al := append([]string(nil), s.Aliases...)
			sort.Strings(al)
			fmt.Fprintf(&b, "%-*s  (alias: %s)\n", w, "", strings.Join(al, ", "))
		}
	}
	return b.String()
}
