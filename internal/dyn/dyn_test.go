package dyn

import (
	"math"
	"testing"

	"suu/internal/core"
	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/sim"
	"suu/internal/solve"
)

func fixture() (*model.Instance, sched.Policy) {
	in := model.New(6, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 6; j++ {
			in.P[i][j] = 0.25 + 0.1*float64(i+j)/9
		}
	}
	in.Prec.MustEdge(0, 2)
	in.Prec.MustEdge(1, 3)
	in.Prec.MustEdge(2, 4)
	pol := sched.NewOblivious(3, []sched.Assignment{{0, 1, 5}, {0, 1, 5}}, &sched.TopoRoundRobin{M: 3, Order: []int{0, 1, 2, 3, 4, 5}})
	return in, pol
}

func TestScenarioValidation(t *testing.T) {
	in, _ := fixture()
	cases := map[string]*Scenario{
		"job range":       New(in).ArriveAt(9, 3),
		"negative step":   New(in).ArriveAt(0, -1),
		"machine range":   New(in).Breakdown(7, 0, 4),
		"empty interval":  New(in).Breakdown(0, 5, 5),
		"regime machine":  New(in).AddRegime(Regime{Machine: -2}),
		"regime prob":     New(in).AddRegime(Regime{Machine: 0, GoodToBad: 1.5}),
		"regime severity": New(in).AddRegime(Regime{Machine: 0, Severity: -0.1}),
		"NaN severity":    New(in).Burst(-1, 0.3, 0.9, math.NaN()),
		"NaN p0":          New(in).Burst(-1, math.NaN(), 0.9, 0.5),
		"NaN alpha":       New(in).Burst(-1, 0.3, math.NaN(), 0.5),
		"NaN transition":  New(in).AddRegime(Regime{Machine: 0, BadToGood: math.NaN()}),
	}
	for name, sc := range cases {
		if sc.Validate() == nil {
			t.Errorf("%s: expected a validation error", name)
		}
	}
	if err := New(in).ArriveAt(0, 3).Breakdown(1, 2, 5).Burst(-1, 0.1, 0.9, 0.5).Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
}

func TestBurstRegimeStationary(t *testing.T) {
	r := BurstRegime(0, 0.2, 0.9, 0.3)
	// Stationary bad probability gb/(gb+bg) must equal p0; persistence
	// 1-(gb+bg) must equal alpha.
	gotP0 := r.GoodToBad / (r.GoodToBad + r.BadToGood)
	if math.Abs(gotP0-0.2) > 1e-12 {
		t.Errorf("stationary bad prob %v, want 0.2", gotP0)
	}
	if alpha := 1 - (r.GoodToBad + r.BadToGood); math.Abs(alpha-0.9) > 1e-12 {
		t.Errorf("persistence %v, want 0.9", alpha)
	}
}

// opaquePolicy hides the concrete policy type so sim's estimator
// cannot compile it — pinning the comparison to the generic step
// engine, the one the dynamic walk runs with the scenario's timeline.
type opaquePolicy struct{ pol sched.Policy }

func (o opaquePolicy) Assign(st *sched.State) sched.Assignment { return o.pol.Assign(st) }

// A scenario whose only event lies beyond the horizon must force the
// dynamic walk (it is not Static) yet reproduce the generic engine's
// completion draws bit for bit. An outcome-observing policy must learn
// from the walk exactly what it learns from the generic engine.
func TestNoOpEventParity(t *testing.T) {
	in, rawPol := fixture()
	sc := New(in).Breakdown(0, 1_000_000, 1_000_001)
	if sc.Static() {
		t.Fatal("scenario with an outage reported Static")
	}
	for _, c := range []struct {
		name string
		pol  func() sched.Policy
		// check compares the policy the walk played with the one the
		// generic engine played.
		check func(t *testing.T, walked, engine sched.Policy)
	}{
		{"oblivious schedule", func() sched.Policy { return opaquePolicy{pol: rawPol} }, nil},
		{"learner", func() sched.Policy { return core.NewLearningPolicy(in, 0.5) }, samePosteriors},
	} {
		pol := c.pol()
		want, wantInc, wantEng := sim.EstimateParallelInfo(in, pol, 500, 100000, 42, 1)
		if wantEng.Engine != sim.EngineGeneric {
			t.Fatalf("%s: oracle engine %q, want generic", c.name, wantEng.Engine)
		}
		walked := c.pol()
		got, gotInc, eng, err := EstimateInfo(sc, NewStatic(sc, walked), 500, 100000, 42, 1)
		if err != nil {
			t.Fatal(err)
		}
		if eng.Engine != sim.EngineDynamic {
			t.Fatalf("%s: engine %q, want %q", c.name, eng.Engine, sim.EngineDynamic)
		}
		if got != want || gotInc != wantInc {
			t.Fatalf("%s: dynamic walk diverged from static engine: %+v/%d vs %+v/%d", c.name, got, gotInc, want, wantInc)
		}
		if c.check != nil {
			c.check(t, walked, pol)
		}
	}
}

// samePosteriors fails unless two learners hold bit-identical
// posteriors, and at least one trial was observed.
func samePosteriors(t *testing.T, walked, engine sched.Policy) {
	t.Helper()
	a, b := walked.(*core.LearningPolicy), engine.(*core.LearningPolicy)
	trials := 0.0
	for i := 0; i < a.In.M; i++ {
		for j := 0; j < a.In.N; j++ {
			if a.Estimate(i, j) != b.Estimate(i, j) || a.Attempts(i, j) != b.Attempts(i, j) {
				t.Fatalf("learner (%d,%d): walk posterior %v after %v trials, engine %v after %v",
					i, j, a.Estimate(i, j), a.Attempts(i, j), b.Estimate(i, j), b.Attempts(i, j))
			}
			trials += a.Attempts(i, j)
		}
	}
	if trials == 0 {
		t.Fatal("learner observed no trial")
	}
}

// A scenario with no events must delegate to the static engines and
// report the engine they chose, not the dynamic walk.
func TestZeroEventDelegation(t *testing.T) {
	in, pol := fixture()
	sc := New(in).ArriveAt(3, 0) // explicit step-0 arrival is still static
	if !sc.Static() {
		t.Fatal("event-free scenario not Static")
	}
	want, wantInc, wantEng := sim.EstimateParallelInfo(in, pol, 500, 100000, 7, 4)
	got, gotInc, eng, err := EstimateInfo(sc, NewStatic(sc, pol), 500, 100000, 7, 4)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Engine == sim.EngineDynamic {
		t.Fatal("static scenario ran the dynamic walk")
	}
	if eng != wantEng || got != want || gotInc != wantInc {
		t.Fatalf("delegation mismatch: %+v/%d/%+v vs %+v/%d/%+v", got, gotInc, eng, want, wantInc, wantEng)
	}
}

func dynamicScenario(in *model.Instance) *Scenario {
	return New(in).
		ArriveAt(5, 4).
		Breakdown(1, 2, 6).
		Burst(0, 0.2, 0.9, 0.3)
}

func TestWorkerCountInvariance(t *testing.T) {
	in, pol := fixture()
	strategies := func(sc *Scenario) []Strategy {
		roll, err := NewRolling(sc, "", core.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		return []Strategy{NewStatic(sc, pol), NewAdaptive(sc), roll}
	}
	sc := dynamicScenario(in)
	for _, strat := range strategies(sc) {
		seq, seqInc, _, err := EstimateInfo(sc, strat, 600, 100000, 11, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{0, 2, 5} {
			got, gotInc, eng, err := EstimateInfo(sc, strat, 600, 100000, 11, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got != seq || gotInc != seqInc {
				t.Fatalf("%s: workers=%d diverged: %+v/%d vs %+v/%d", strat.Name(), workers, got, gotInc, seq, seqInc)
			}
			if eng.Engine != sim.EngineDynamic {
				t.Fatalf("%s: engine %q", strat.Name(), eng.Engine)
			}
		}
	}
}

// Rolling on an event-free scenario must be bit-identical to solving
// the instance statically with the same params and estimating that
// policy — the zero-event regression pin at the dyn layer.
func TestRollingZeroEventMatchesStaticSolve(t *testing.T) {
	in, _ := fixture()
	par := core.DefaultParams()
	_, res, err := solve.Auto(in, par)
	if err != nil {
		t.Fatal(err)
	}
	want, wantInc, wantEng := sim.EstimateParallelInfo(in, res.Policy, 400, 100000, 3, 4)
	sc := New(in)
	roll, err := NewRolling(sc, "auto", par)
	if err != nil {
		t.Fatal(err)
	}
	got, gotInc, eng, err := EstimateInfo(sc, roll, 400, 100000, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || gotInc != wantInc || eng != wantEng {
		t.Fatalf("rolling zero-event diverged: %+v/%d/%+v vs %+v/%d/%+v", got, gotInc, eng, want, wantInc, wantEng)
	}
}

func TestRollingUnknownSolver(t *testing.T) {
	in, _ := fixture()
	if _, err := NewRolling(New(in), "no-such-solver", core.DefaultParams()); err == nil {
		t.Fatal("unknown solver accepted")
	}
}

func TestArrivalDelaysCompletion(t *testing.T) {
	in := model.New(1, 1)
	in.P[0][0] = 1
	sc := New(in).ArriveAt(0, 5)
	sum, inc, _, err := EstimateInfo(sc, NewAdaptive(sc), 8, 1000, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if inc != 0 || sum.Min != 6 || sum.Max != 6 {
		t.Fatalf("arrival at 5 with p=1: got %+v inc=%d, want deterministic makespan 6", sum, inc)
	}
}

func TestOutageBlocksMachine(t *testing.T) {
	in := model.New(1, 1)
	in.P[0][0] = 1
	sc := New(in).Breakdown(0, 0, 3)
	sum, inc, _, err := EstimateInfo(sc, NewAdaptive(sc), 8, 1000, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if inc != 0 || sum.Min != 4 || sum.Max != 4 {
		t.Fatalf("outage [0,3) with p=1: got %+v inc=%d, want deterministic makespan 4", sum, inc)
	}
}

// A total-failure burst (severity 0) entered immediately and never
// left must stall every trajectory at the step cap.
func TestSeverityZeroBurstStalls(t *testing.T) {
	in := model.New(1, 1)
	in.P[0][0] = 1
	sc := New(in).AddRegime(Regime{Machine: 0, GoodToBad: 1, BadToGood: 0, Severity: 0})
	sum, inc, _, err := EstimateInfo(sc, NewAdaptive(sc), 8, 50, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if inc != 8 || sum.Max != 50 {
		t.Fatalf("total burst: got %+v inc=%d, want all 8 stalled at cap 50", sum, inc)
	}
}

// Under a long outage of the strong machine, rolling (which plans
// around availability) must not do worse in expectation than a static
// schedule built for the full machine set.
func TestRollingAdaptsToOutage(t *testing.T) {
	in, _ := fixture()
	par := core.DefaultParams()
	_, res, err := solve.Auto(in, par)
	if err != nil {
		t.Fatal(err)
	}
	sc := New(in).Breakdown(0, 0, 40).Breakdown(1, 0, 40)
	roll, err := NewRolling(sc, "", par)
	if err != nil {
		t.Fatal(err)
	}
	rollSum, _, _, err := EstimateInfo(sc, roll, 400, 100000, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	statSum, _, _, err := EstimateInfo(sc, NewStatic(sc, res.Policy), 400, 100000, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rollSum.Mean > statSum.Mean*1.05 {
		t.Fatalf("rolling mean %.3f worse than oblivious %.3f under outage", rollSum.Mean, statSum.Mean)
	}
}

func TestEstimateRejectsBadInput(t *testing.T) {
	in, pol := fixture()
	sc := New(in)
	if _, _, _, err := EstimateInfo(sc, NewStatic(sc, pol), 0, 100, 1, 1); err == nil {
		t.Fatal("reps=0 accepted")
	}
	bad := New(in).ArriveAt(99, 1)
	if _, _, _, err := EstimateInfo(bad, NewAdaptive(bad), 10, 100, 1, 1); err == nil {
		t.Fatal("invalid scenario accepted")
	}
}
