package solve

import (
	"fmt"

	"suu/internal/core"
	"suu/internal/dag"
	"suu/internal/model"
	"suu/internal/opt"
	"suu/internal/sched"
)

// The registrations below are the single catalogue of constructions.
// Ranks order Auto dispatch (lower = stronger): the LP-based
// independent-jobs schedule beats the chains pipeline on independent
// instances, the chains pipeline owns the chains class, and the
// forest pipeline is the universal fallback.

func init() {
	Register(Solver{
		ID:             "lp-oblivious",
		Theorem:        "Thm 4.5",
		Guarantee:      "O(log n · log min(n,m))",
		Classes:        []dag.Class{dag.ClassIndependent},
		Oblivious:      true,
		Parallelizable: true,
		Rank:           10,
		Build:          buildLPOblivious,
	})
	Register(Solver{
		ID:             "chains",
		Theorem:        "Thm 4.4",
		Guarantee:      "O(log m · log n · log(n+m)/loglog(n+m))",
		Classes:        []dag.Class{dag.ClassIndependent, dag.ClassChains},
		Oblivious:      true,
		Parallelizable: true,
		Rank:           20,
		Build:          buildChains,
	})
	Register(Solver{
		ID:             "forest",
		Theorem:        "Thm 4.7/4.8",
		Guarantee:      "O(log m · log² n) trees; ·log(n+m)/loglog(n+m) mixed; fallback outside the paper's classes",
		Classes:        nil, // level-decomposition fallback handles any dag
		Oblivious:      true,
		Parallelizable: true,
		Rank:           90,
		Build:          buildForest,
	})
	Register(Solver{
		ID:             "comb-oblivious",
		Theorem:        "Thm 3.6",
		Guarantee:      "O(log² n) for independent jobs",
		Classes:        []dag.Class{dag.ClassIndependent},
		Oblivious:      true,
		Parallelizable: true,
		Rank:           30,
		Build:          buildCombOblivious,
	})
	Register(Solver{
		ID:             "adaptive",
		Theorem:        "Thm 3.3",
		Guarantee:      "O(log n) for independent jobs",
		Classes:        nil, // greedy MSM is feasible (heuristic) on any dag
		Parallelizable: true,
		Build:          buildAdaptive,
	})
	Register(Solver{
		ID:        "learning",
		Guarantee: "none (beyond the paper; Beta-Bernoulli posterior + MSM greedy)",
		Classes:   nil,
		// The learner observes outcomes (sched.OutcomeObserver), so its
		// repetitions must run sequentially.
		Parallelizable: false,
		Build:          buildLearning,
	})
	Register(Solver{
		ID:             "optimal",
		Theorem:        "Malewicz DP",
		Guarantee:      "exact (layered value iteration; structured dags to n≈20)",
		Classes:        nil,
		Parallelizable: true,
		Build:          buildOptimal,
	})
	Register(Solver{
		ID:             "greedy-maxp",
		Aliases:        []string{"greedy"},
		Guarantee:      "none (baseline)",
		Baseline:       true,
		Parallelizable: true,
		Build: func(in *model.Instance, par core.Params) (*Result, error) {
			return baselineResult("greedy-maxp", &core.GreedyMaxPPolicy{In: in}), nil
		},
	})
	Register(Solver{
		ID:             "round-robin",
		Guarantee:      "none (baseline)",
		Baseline:       true,
		Parallelizable: true,
		Build: func(in *model.Instance, par core.Params) (*Result, error) {
			return baselineResult("round-robin", &core.RoundRobinPolicy{In: in}), nil
		},
	})
	Register(Solver{
		ID:             "all-on-one",
		Guarantee:      "none (baseline)",
		Baseline:       true,
		Parallelizable: true,
		Build: func(in *model.Instance, par core.Params) (*Result, error) {
			return baselineResult("all-on-one", &core.AllOnOnePolicy{In: in}), nil
		},
	})
	Register(Solver{
		ID:        "random",
		Guarantee: "none (baseline)",
		Baseline:  true,
		// Draws are a pure function of (seed, step, eligible set).
		Parallelizable: true,
		Build: func(in *model.Instance, par core.Params) (*Result, error) {
			return baselineResult("random", &core.RandomPolicy{In: in, Seed: par.Seed}), nil
		},
	})
}

func buildLPOblivious(in *model.Instance, par core.Params) (*Result, error) {
	res, err := core.SUUIndependentLP(in, par)
	if err != nil {
		return nil, err
	}
	return &Result{
		Policy:     res.Schedule,
		Kind:       "oblivious-lp (Thm 4.5)",
		Guarantee:  "O(log n · log min(n,m))",
		PrefixLen:  res.Schedule.Len(),
		CoreLength: res.CoreLength,
		LPValue:    res.TStar,
		LowerBound: res.LowerBound,
		MaxLoad:    res.MaxLoad,
		Congestion: res.Congestion,
		LPPivots:   res.LPPivots,
		LPRows:     res.LPRows,
		LPCols:     res.LPCols,
		LPNnz:      res.LPNnz,
		LPBasis:    res.LPBasis,
		Detail:     fmt.Sprintf("LP oblivious (T*=%.2f, lower bound %.2f)", res.TStar, res.LowerBound),
	}, nil
}

func buildChains(in *model.Instance, par core.Params) (*Result, error) {
	res, err := core.SUUChains(in, par)
	if err != nil {
		return nil, err
	}
	return &Result{
		Policy:     res.Schedule,
		Kind:       "chains (Thm 4.4)",
		Guarantee:  "O(log m · log n · log(n+m)/loglog(n+m))",
		PrefixLen:  res.Schedule.Len(),
		CoreLength: res.CoreLength,
		LPValue:    res.TStar,
		LowerBound: res.LowerBound,
		MaxLoad:    res.MaxLoad,
		Congestion: res.Congestion,
		LPPivots:   res.LPPivots,
		LPRows:     res.LPRows,
		LPCols:     res.LPCols,
		LPNnz:      res.LPNnz,
		Detail:     fmt.Sprintf("chains pipeline (T*=%.2f, Πmax=%d, congestion=%d)", res.TStar, res.MaxLoad, res.Congestion),
	}, nil
}

// forestKind maps the instance's class to the paper result the forest
// pipeline instantiates on it, mirroring the pre-registry dispatch of
// suu.Solve. On independent/chains inputs the decomposition
// degenerates to a single chains block, i.e. the Theorem 4.4
// machinery.
func forestKind(c dag.Class) (kind, guarantee string) {
	switch c {
	case dag.ClassIndependent, dag.ClassChains:
		return "forest (single chains block)", "O(log m · log n · log(n+m)/loglog(n+m))"
	case dag.ClassOutForest, dag.ClassInForest:
		return "trees (Thm 4.8)", "O(log m · log² n)"
	case dag.ClassMixedForest:
		return "forest (Thm 4.7)", "O(log m · log² n · log(n+m)/loglog(n+m))"
	default:
		return "level-fallback", "O(depth · chains-factor); outside the paper's classes"
	}
}

func buildForest(in *model.Instance, par core.Params) (*Result, error) {
	res, err := core.SUUForest(in, par)
	if err != nil {
		return nil, err
	}
	kind, guarantee := forestKind(in.Prec.Classify())
	return &Result{
		Policy:     res.Schedule,
		Kind:       kind,
		Guarantee:  guarantee,
		PrefixLen:  res.Schedule.Len(),
		CoreLength: res.CoreLength,
		LowerBound: res.LowerBound,
		Blocks:     res.Decomposition.Width(),
		Decomp:     res.Decomposition.Method,
		LPPivots:   res.LPPivots,
		LPRows:     res.LPRows,
		LPCols:     res.LPCols,
		LPNnz:      res.LPNnz,
		Detail: fmt.Sprintf("forest pipeline (%s decomposition, %d blocks, lower bound %.2f)",
			res.Decomposition.Method, res.Decomposition.Width(), res.LowerBound),
	}, nil
}

func buildCombOblivious(in *model.Instance, par core.Params) (*Result, error) {
	res, err := core.SUUIOblivious(in, par)
	if err != nil {
		return nil, err
	}
	return &Result{
		Policy:     res.Schedule,
		Kind:       "oblivious-combinatorial (Thm 3.6)",
		Guarantee:  "O(log² n) for independent jobs",
		PrefixLen:  res.Schedule.Len(),
		CoreLength: res.CoreLength,
		Detail: fmt.Sprintf("SUU-I-OBL (t=%d, rounds=%d, core %d steps)",
			res.TGuess, res.Rounds, res.CoreLength),
	}, nil
}

func buildAdaptive(in *model.Instance, par core.Params) (*Result, error) {
	return &Result{
		Policy:    &core.AdaptivePolicy{In: in},
		Kind:      "adaptive (Thm 3.3)",
		Guarantee: "O(log n) for independent jobs",
		Adaptive:  true,
		Detail:    "adaptive SUU-I-ALG",
	}, nil
}

func buildLearning(in *model.Instance, par core.Params) (*Result, error) {
	return &Result{
		Policy:    core.NewLearningPolicy(in, par.Optimism),
		Kind:      "learning (§5 online extension)",
		Guarantee: "none (beyond the paper; Beta-Bernoulli posterior + MSM greedy)",
		Adaptive:  true,
		Detail:    fmt.Sprintf("online learner (§5 extension, optimism %.1f)", par.Optimism),
	}, nil
}

func buildOptimal(in *model.Instance, par core.Params) (*Result, error) {
	reg, topt, st, err := opt.OptimalRegimenParallel(in, 0)
	if err != nil {
		return nil, err
	}
	return &Result{
		Policy:           reg,
		Kind:             "optimal-regimen (layered value iteration)",
		Guarantee:        "exact",
		Adaptive:         true,
		ExactValue:       topt,
		ExactStates:      st.States,
		ExactTransitions: st.Transitions,
		Exact:            st,
		Detail: fmt.Sprintf("optimal regimen (exact E[makespan]=%.4f, %d closed states, %d transitions, %d closed-form)",
			topt, st.States, st.Transitions, st.ClosedForm),
	}, nil
}

func baselineResult(kind string, p sched.Policy) *Result {
	return &Result{
		Policy:    p,
		Kind:      kind,
		Guarantee: "none (baseline)",
		Adaptive:  true,
		Detail:    "baseline " + kind,
	}
}
