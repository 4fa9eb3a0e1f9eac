package suu

import (
	"encoding/json"
	"reflect"
	"testing"

	"suu/internal/core"
	"suu/internal/dag"
	"suu/internal/sched"
)

// oldSolve replicates the pre-registry Solve dispatch verbatim (the
// hard-coded class switch over internal/core constructions). The
// parity tests pin registry-dispatched Solve to this path bit for
// bit; if they ever diverge, the refactor changed behaviour, not just
// structure.
func oldSolve(x *Instance, par core.Params) (sched.Policy, string, string, float64, float64, int, error) {
	switch x.inner.Prec.Classify() {
	case dag.ClassIndependent:
		res, err := core.SUUIndependentLP(x.inner, par)
		if err != nil {
			return nil, "", "", 0, 0, 0, err
		}
		return res.Schedule, "oblivious-lp (Thm 4.5)", "O(log n · log min(n,m))", res.TStar, res.LowerBound, res.CoreLength, nil
	case dag.ClassChains:
		res, err := core.SUUChains(x.inner, par)
		if err != nil {
			return nil, "", "", 0, 0, 0, err
		}
		return res.Schedule, "chains (Thm 4.4)", "O(log m · log n · log(n+m)/loglog(n+m))", res.TStar, res.LowerBound, res.CoreLength, nil
	case dag.ClassOutForest, dag.ClassInForest:
		res, err := core.SUUForest(x.inner, par)
		if err != nil {
			return nil, "", "", 0, 0, 0, err
		}
		return res.Schedule, "trees (Thm 4.8)", "O(log m · log² n)", 0, res.LowerBound, res.CoreLength, nil
	case dag.ClassMixedForest:
		res, err := core.SUUForest(x.inner, par)
		if err != nil {
			return nil, "", "", 0, 0, 0, err
		}
		return res.Schedule, "forest (Thm 4.7)", "O(log m · log² n · log(n+m)/loglog(n+m))", 0, res.LowerBound, res.CoreLength, nil
	default:
		res, err := core.SUUForest(x.inner, par)
		if err != nil {
			return nil, "", "", 0, 0, 0, err
		}
		return res.Schedule, "level-fallback", "O(depth · chains-factor); outside the paper's classes", 0, res.LowerBound, res.CoreLength, nil
	}
}

// parityInstances covers every precedence class the dispatcher
// distinguishes.
func parityInstances() map[string]func() *Instance {
	return map[string]func() *Instance{
		"independent": func() *Instance { return tinyIndependent() },
		"chains": func() *Instance {
			x := tinyIndependent()
			x.AddPrecedence(0, 1)
			return x
		},
		"out-forest": func() *Instance {
			x := tinyIndependent()
			x.AddPrecedence(0, 1)
			x.AddPrecedence(0, 2)
			return x
		},
		"in-forest": func() *Instance {
			x := tinyIndependent()
			x.AddPrecedence(1, 0)
			x.AddPrecedence(2, 0)
			return x
		},
		"mixed-forest": func() *Instance {
			x := NewInstance(5, 2)
			for j := 0; j < 5; j++ {
				x.SetProb(0, j, 0.6)
				x.SetProb(1, j, 0.4)
			}
			x.AddPrecedence(0, 1)
			x.AddPrecedence(2, 1)
			x.AddPrecedence(3, 4)
			return x
		},
		"general": func() *Instance {
			x := NewInstance(4, 2)
			for j := 0; j < 4; j++ {
				x.SetProb(0, j, 0.6)
				x.SetProb(1, j, 0.4)
			}
			x.AddPrecedence(0, 2)
			x.AddPrecedence(1, 2)
			x.AddPrecedence(1, 3)
			x.AddPrecedence(0, 3)
			return x
		},
	}
}

// TestSolveRegistryParity pins the registry dispatch to the
// pre-refactor construction path: identical schedule steps, metadata,
// bounds, and (bit-identical) makespan estimates for fixed seeds.
func TestSolveRegistryParity(t *testing.T) {
	for name, build := range parityInstances() {
		t.Run(name, func(t *testing.T) {
			for _, seed := range []int64{1, 5, 9} {
				x := build()
				par := core.DefaultParams()
				par.Seed = seed
				oldPol, oldKind, oldGuar, oldTStar, oldLB, oldCore, err := oldSolve(x, par)
				if err != nil {
					t.Fatal(err)
				}
				s, err := Solve(x, WithSeed(seed))
				if err != nil {
					t.Fatal(err)
				}
				if s.Kind != oldKind || s.Guarantee != oldGuar {
					t.Fatalf("metadata drift: got (%q, %q), want (%q, %q)", s.Kind, s.Guarantee, oldKind, oldGuar)
				}
				if s.LPValue != oldTStar || s.LowerBound != oldLB || s.CoreLength != oldCore {
					t.Fatalf("diagnostics drift: got (T*=%v, LB=%v, core=%d), want (T*=%v, LB=%v, core=%d)",
						s.LPValue, s.LowerBound, s.CoreLength, oldTStar, oldLB, oldCore)
				}
				oldObl, ok := oldPol.(*sched.Oblivious)
				if !ok {
					t.Fatal("old path did not build an oblivious schedule")
				}
				newObl, ok := s.policy.(*sched.Oblivious)
				if !ok {
					t.Fatal("registry path did not build an oblivious schedule")
				}
				oldRuns, oldEnds := oldObl.Runs()
				newRuns, newEnds := newObl.Runs()
				if !reflect.DeepEqual(oldRuns, newRuns) || !reflect.DeepEqual(oldEnds, newEnds) {
					t.Fatalf("schedule steps differ (seed %d)", seed)
				}
				a, _ := json.Marshal(oldObl)
				b, _ := json.Marshal(newObl)
				if string(a) != string(b) {
					t.Fatalf("schedule JSON differs (seed %d)", seed)
				}
				// Simulated estimates are a deterministic function of
				// (schedule, seed), so parity of schedules implies parity of
				// estimates; assert it end to end anyway.
				e1, err := s.EstimateMakespan(x, 60, WithSimSeed(seed))
				if err != nil {
					t.Fatal(err)
				}
				e2 := estimateOblivious(t, x, oldObl, 60, seed)
				if e1.Mean != e2 {
					t.Fatalf("estimate drift: %v != %v", e1.Mean, e2)
				}
			}
		})
	}
}

func estimateOblivious(t *testing.T, x *Instance, o *sched.Oblivious, reps int, seed int64) float64 {
	t.Helper()
	s := &Schedule{policy: o}
	e, err := s.EstimateMakespan(x, reps, WithSimSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return e.Mean
}

// TestBaselineRegistryParity pins the registry-backed baselines to
// their direct-construction behaviour.
func TestBaselineRegistryParity(t *testing.T) {
	x := tinyIndependent()
	for _, b := range []Baseline{BaselineGreedy, BaselineRoundRobin, BaselineAllOnOne, BaselineRandom} {
		s, err := NewBaseline(x, b, 3)
		if err != nil {
			t.Fatal(err)
		}
		if s.Kind != string(b) || s.Guarantee != "none (baseline)" || !s.Adaptive {
			t.Errorf("%s: metadata drift: %+v", b, s)
		}
		m1, _ := s.RunOnce(x, 11, 100000)
		s2, err := NewBaseline(x, b, 3)
		if err != nil {
			t.Fatal(err)
		}
		m2, _ := s2.RunOnce(x, 11, 100000)
		if m1 != m2 {
			t.Errorf("%s: not deterministic across registry builds", b)
		}
	}
	// Non-baseline registry ids must not leak through NewBaseline.
	if _, err := NewBaseline(x, Baseline("chains"), 1); err == nil {
		t.Error("NewBaseline accepted a non-baseline solver id")
	}
}
