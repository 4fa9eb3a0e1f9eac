package dyn

import (
	"math"
	"testing"

	"suu/internal/core"
	"suu/internal/model"
	"suu/internal/opt"
	"suu/internal/sched"
	"suu/internal/sim"
	"suu/internal/solve"
	"suu/internal/stats"
	"suu/internal/workload"
)

// pinReps is the repetition count of every Monte Carlo pin against
// ExactMakespan.
const pinReps = 20_000

// exact is ExactMakespan that fails the test on an error or on a
// residual that could matter at the pins' 4-SE scale.
func exact(t *testing.T, sc *Scenario, strat Strategy, maxSteps int) float64 {
	t.Helper()
	v, residual, err := ExactMakespan(sc, strat, maxSteps)
	if err != nil {
		t.Fatal(err)
	}
	if residual > 1e-9 {
		t.Fatalf("%s: residual %g", strat.Name(), residual)
	}
	return v
}

// within4SE fails unless the estimate's mean lies within 4 standard
// errors of want.
func within4SE(t *testing.T, what string, sum stats.Summary, want float64) {
	t.Helper()
	se := sum.StdDev / math.Sqrt(float64(sum.N))
	if d := math.Abs(sum.Mean - want); d > 4*se {
		t.Errorf("%s: Monte Carlo mean %.4f, exact %.4f: off by %.1f SE (SE %.4f, %d reps)", what, sum.Mean, want, d/se, se, sum.N)
	} else {
		t.Logf("%s: Monte Carlo mean %.4f, exact %.4f (%.2f SE)", what, sum.Mean, want, d/se)
	}
}

// deployed is the oblivious schedule solve.Auto builds for in, with
// every step replicated factor·⌈log₂ n⌉ times (16 is the paper's).
func deployed(t *testing.T, in *model.Instance, factor int) *sched.Oblivious {
	t.Helper()
	par := core.DefaultParams()
	par.ReplicationFactor = factor
	_, res, err := solve.Auto(in, par)
	if err != nil {
		t.Fatal(err)
	}
	o, ok := res.Policy.(*sched.Oblivious)
	if !ok {
		t.Fatalf("solver built %T, want *sched.Oblivious", res.Policy)
	}
	return o
}

// One job on one bursty machine: with V_g and V_b the expected
// remaining steps before a step's transition from the good and the bad
// state,
//
//	V_g = 1 + (1−a)(1−p)·V_g + a(1−sp)·V_b
//	V_b = 1 + b(1−p)·V_g + (1−b)(1−sp)·V_b,
//
// and E[T] = V_g, since every machine starts good.
func TestExactMakespanClosedForm(t *testing.T) {
	for _, c := range []struct{ p, a, b, s float64 }{
		{0.5, 0.1, 0.3, 0.2},
		{0.3, 0.7, 0.6, 0.1},  // GoodToBad + BadToGood > 1
		{0.8, 0.2, 0.05, 0},   // total failure while bad
		{0.4, 1, 1, 0.5},      // flips at every transition
		{0.25, 0.05, 0, 0.6},  // bad is absorbing
		{0.6, 0, 0.5, 0.1},    // never leaves good
		{1, 0.3, 0.2, 0.3},    // certain while good
		{0.05, 0.02, 0.9, 1},  // severity 1: the regime is invisible
		{0.35, 0.15, 0.85, 0}, // the quick T15 moderate burst's rates
	} {
		in := model.New(1, 1)
		in.P[0][0] = c.p
		sc := New(in).AddRegime(Regime{Machine: 0, GoodToBad: c.a, BadToGood: c.b, Severity: c.s})
		a11, a12 := 1-(1-c.a)*(1-c.p), -c.a*(1-c.s*c.p)
		a21, a22 := -c.b*(1-c.p), 1-(1-c.b)*(1-c.s*c.p)
		want := (a22 - a12) / (a11*a22 - a12*a21)
		for _, strat := range []Strategy{NewAdaptive(sc), NewStatic(sc, sched.NewOblivious(1, []sched.Assignment{{0}}, nil))} {
			got := exact(t, sc, strat, 1<<40)
			if math.Abs(got-want) > 1e-9*want {
				t.Errorf("%+v %s: ExactMakespan %.12f, closed form %.12f", c, strat.Name(), got, want)
			}
		}
	}
}

// exactSingleJob is ExactMakespan of the oblivious schedule that cycles
// steps on one job at p = 0.5, with no events, capped at maxSteps.
func exactSingleJob(t *testing.T, steps []sched.Assignment, maxSteps int) float64 {
	t.Helper()
	in := model.New(1, 1)
	in.P[0][0] = 0.5
	sc := New(in)
	return exact(t, sc, NewStatic(sc, sched.NewOblivious(1, steps, nil)), maxSteps)
}

// One job at p = 0.5 trialed every step takes 1/p = 2 steps on average.
func TestExactMakespanSingleJobGeometric(t *testing.T) {
	if got := exactSingleJob(t, []sched.Assignment{{0}}, 1<<40); math.Abs(got-2) > 1e-9 {
		t.Errorf("E = %.12f, want 2", got)
	}
}

// A cycled prefix {job, idle} trials the job on odd steps only, so
// E = 2·E[geometric(1/2)] − 1 = 3.
func TestExactMakespanCyclePrefixEqualsTailFormula(t *testing.T) {
	if got := exactSingleJob(t, []sched.Assignment{{0}, {sched.Idle}}, 1<<40); math.Abs(got-3) > 1e-9 {
		t.Errorf("E = %.12f, want 3", got)
	}
}

// Under a cap the mean is E[min(T, cap)] and the residual is the mass
// still unfinished there, P(T ≥ cap) = (1−p)^(cap−1), for one job
// trialed every step at p. At p = 0.5 a cap of one step gives 1 with
// everything unfinished (half the runs finish at step 1, the other
// half are cut there), and two steps give 1.5 with 0.5 unfinished. At
// p = 0.001 a cap of 100 gives (1 − 0.999^100)/0.001 ≈ 95.21, far
// below E[T] = 1000, and the residual 0.999^99 ≈ 0.9057 says so.
func TestExactMakespanHorizonResidual(t *testing.T) {
	for _, c := range []struct {
		p        float64
		maxSteps int
	}{{0.5, 1}, {0.5, 2}, {0.001, 100}} {
		in := model.New(1, 1)
		in.P[0][0] = c.p
		sc := New(in)
		got, residual, err := ExactMakespan(sc, NewStatic(sc, sched.NewOblivious(1, []sched.Assignment{{0}}, nil)), c.maxSteps)
		if err != nil {
			t.Fatal(err)
		}
		want := (1 - math.Pow(1-c.p, float64(c.maxSteps))) / c.p
		wantResidual := math.Pow(1-c.p, float64(c.maxSteps-1))
		if math.Abs(got-want) > 1e-9 || math.Abs(residual-wantResidual) > 1e-12 {
			t.Errorf("p %v, cap %d: E[min(T, cap)] = %.12f with residual %.12f, want %.12f and %.12f",
				c.p, c.maxSteps, got, residual, want, wantResidual)
		}
	}
}

// On an event-free scenario the walk is the static model, so a
// stationary regimen's forward value must equal opt.ExactRegimen's
// backward one, and the masked greedy's must equal the regimen that
// freezes SUU-I-ALG.
func TestExactMakespanMatchesExactRegimen(t *testing.T) {
	instances := map[string]*model.Instance{
		"independent 6x2": workload.Independent(workload.Config{Jobs: 6, Machines: 2, Seed: 1}),
		"chains 7x3":      workload.Chains(workload.Config{Jobs: 7, Machines: 3, Seed: 2}, 2),
		"forest 7x2":      workload.MixedForest(workload.Config{Jobs: 7, Machines: 2, Seed: 3}, 2),
		"low p 5x2":       workload.Independent(workload.Config{Jobs: 5, Machines: 2, Seed: 4, Lo: 0.02, Hi: 0.2}),
	}
	for name, in := range instances {
		sc := New(in)
		optimal, _, err := opt.OptimalRegimen(in)
		if err != nil {
			t.Fatal(err)
		}
		greedy, err := opt.GreedyRegimen(in, func(unf, elig []bool) sched.Assignment {
			return (&core.AdaptivePolicy{In: in}).Assign(&sched.State{Unfinished: unf, Eligible: elig})
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			what  string
			reg   *sched.Regimen
			strat Strategy
		}{
			{"optimal regimen", optimal, NewStatic(sc, optimal)},
			{"greedy regimen", greedy, NewStatic(sc, greedy)},
			{"masked greedy", greedy, NewAdaptive(sc)},
		} {
			want, err := opt.ExactRegimen(in, c.reg)
			if err != nil {
				t.Fatal(err)
			}
			if got := exact(t, sc, c.strat, 1<<40); math.Abs(got-want) > 1e-9 {
				t.Errorf("%s, %s: ExactMakespan %.12f, ExactRegimen %.12f", name, c.what, got, want)
			}
		}
	}
}

func TestExactMakespanRejects(t *testing.T) {
	in, pol := fixture()
	sc := dynamicScenario(in)
	roll, err := NewRolling(sc, "", core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ExactMakespan(sc, roll, 100); err == nil {
		t.Error("rolling strategy accepted")
	}
	if _, _, err := ExactMakespan(sc, NewStatic(sc, observer{pol}), 100); err == nil {
		t.Error("outcome observer accepted")
	}
	if _, _, err := ExactMakespan(sc, NewAdaptive(sc), 0); err == nil {
		t.Error("maxSteps 0 accepted")
	}
	big := workload.Independent(workload.Config{Jobs: 18, Machines: 3, Seed: 1})
	bigSc := New(big).Burst(-1, 0.2, 0.9, 0.5)
	if _, _, err := ExactMakespan(bigSc, NewAdaptive(bigSc), 100); err == nil {
		t.Errorf("2^21 states accepted")
	}
	if _, _, err := ExactMakespan(New(in).ArriveAt(99, 1), NewAdaptive(sc), 100); err == nil {
		t.Error("invalid scenario accepted")
	}
}

// observer is a policy that watches outcomes, which makes its
// assignments depend on history.
type observer struct{ sched.Policy }

func (observer) Observe(sched.Assignment, []bool) {}

// exactCase is a tiny dynamic scenario with the oblivious schedule it
// deploys.
type exactCase struct {
	name     string
	sc       *Scenario
	pol      *sched.Oblivious
	maxSteps int
}

func exactCases(t *testing.T) []exactCase {
	t.Helper()
	indep := workload.Independent(workload.Config{Jobs: 4, Machines: 2, Seed: 11})
	chains := workload.Chains(workload.Config{Jobs: 5, Machines: 2, Seed: 12}, 2)
	forest := workload.MixedForest(workload.Config{Jobs: 6, Machines: 3, Seed: 13}, 2)
	indepPol, chainsPol, forestPol := deployed(t, indep, 16), deployed(t, chains, 16), deployed(t, forest, 16)
	// The forest schedule's first run ends at runEnd; the outage takes
	// machine 0 from two steps before it to three steps after.
	runEnd := forestPol.RunEnd(0)
	if runEnd < 3 || runEnd >= forestPol.Len() {
		t.Fatalf("forest schedule's first run ends at %d of %d", runEnd, forestPol.Len())
	}
	I := sched.Idle
	cycling := sched.NewOblivious(2, []sched.Assignment{
		{0, 1}, {I, I}, {2, 2}, {3, I},
	}, nil).Replicate(3)
	return []exactCase{
		{"independent, regime on one machine", New(indep).Burst(1, 0.3, 0.8, 0.2), indepPol, 100_000},
		{"chains, arrival", New(chains).ArriveAt(3, 6).Burst(0, 0.2, 0.9, 0.3), chainsPol, 100_000},
		{"forest, outage across a run boundary", New(forest).Breakdown(0, runEnd-2, runEnd+3), forestPol, 100_000},
		{"forest, regime on every machine", New(forest).ArriveAt(5, 4).Burst(-1, 0.15, 0.9, 0.35), forestPol, 100_000},
		{"independent, fast flips", New(indep).AddRegime(Regime{Machine: 0, GoodToBad: 0.7, BadToGood: 0.6, Severity: 0.2}), indepPol, 100_000},
		{"chains, absorbing bad state", New(chains).AddRegime(Regime{Machine: -1, GoodToBad: 0.05, BadToGood: 0, Severity: 0.4}), chainsPol, 100_000},
		{"nil-tail cycling schedule", New(indep).ArriveAt(2, 5).Burst(-1, 0.3, 0.8, 0.1), cycling, 100_000},
		{"step cap inside a run", New(indep).Breakdown(1, 0, 3).Burst(0, 0.4, 0.9, 0), cycling, 14},
	}
}

// Both the oblivious walk (which jumps idle runs) and the masked
// greedy's per-step walk must land within 4 standard errors of the
// exact value on every tiny scenario.
func TestEstimatesMatchExactMakespan(t *testing.T) {
	for _, c := range exactCases(t) {
		if c.sc.Static() {
			t.Fatalf("%s: scenario is static and would not walk", c.name)
		}
		for _, strat := range []Strategy{NewStatic(c.sc, c.pol), NewAdaptive(c.sc)} {
			want, residual, err := ExactMakespan(c.sc, strat, c.maxSteps)
			if err != nil {
				t.Fatal(err)
			}
			// The walk cuts a run at maxSteps as the propagation does, so
			// both sides are E[min(T, maxSteps)]. Only the step-cap case
			// leaves mass unfinished there, and its residual must say so.
			if capped := c.maxSteps < 100_000; capped != (residual > 1e-9) {
				t.Errorf("%s, %s: residual %g at cap %d", c.name, strat.Name(), residual, c.maxSteps)
			}
			sum, _, eng, err := EstimateInfo(c.sc, strat, pinReps, c.maxSteps, 5, 0)
			if err != nil {
				t.Fatal(err)
			}
			if eng.Engine != sim.EngineDynamic {
				t.Fatalf("%s: engine %q", c.name, eng.Engine)
			}
			within4SE(t, c.name+", "+strat.Name(), sum, want)
		}
	}
}

// Each static engine must land within 4 standard errors of the exact
// value on event-free tiny instances, at repetition counts that select
// it: the generic step walk (the schedule behind sched.PolicyFunc), the
// compiled walk and its lane form for the deployed *sched.Oblivious,
// and the compiled adaptive memo for the masked greedy. The schedules
// replicate each step ⌈log₂ n⌉ times rather than 16 times as many, so
// their makespans are tens of steps and luck, not the prefix, sets
// most of them.
func TestStaticEnginesMatchExactMakespan(t *testing.T) {
	const maxSteps = 100_000
	for name, in := range map[string]*model.Instance{
		"independent 5x2": workload.Independent(workload.Config{Jobs: 5, Machines: 2, Seed: 21}),
		"chains 6x3":      workload.Chains(workload.Config{Jobs: 6, Machines: 3, Seed: 22}, 2),
		"forest 6x2":      workload.MixedForest(workload.Config{Jobs: 6, Machines: 2, Seed: 23}, 2),
	} {
		sc := New(in)
		o := deployed(t, in, 1)
		adaptive := &core.AdaptivePolicy{In: in}
		obliviousValue := exact(t, sc, NewStatic(sc, o), maxSteps)
		adaptiveValue := exact(t, sc, NewAdaptive(sc), maxSteps)
		for _, c := range []struct {
			engine string
			pol    sched.Policy
			reps   int
			lanes  bool
			want   float64
		}{
			{sim.EngineGeneric, sched.PolicyFunc(o.Assign), pinReps, true, obliviousValue},
			{sim.EngineCompiled, o, sim.BitParallelAutoMinReps - 1, true, obliviousValue},
			{sim.EngineCompiled, o, pinReps, false, obliviousValue},
			{sim.EngineLane, o, pinReps, true, obliviousValue},
			{sim.EngineCompiledAdaptive, adaptive, pinReps, true, adaptiveValue},
		} {
			sum, _, eng := sim.EstimateInfoLanes(in, c.pol, c.reps, maxSteps, 3, c.lanes)
			if eng.Engine != c.engine {
				t.Fatalf("%s: %d reps ran %q, want %q", name, c.reps, eng.Engine, c.engine)
			}
			within4SE(t, name+", "+c.engine, sum, c.want)
		}
	}
}

// burstyWorkload is the seed-7 workload instance of the exact
// evaluator's capacity pins, one chain per machine or one out-tree,
// with Burst(i, 0.3, 0.9, 0.2) on machines 0–2.
func burstyWorkload(jobs, machines int, tree bool) *Scenario {
	cfg := workload.Config{Jobs: jobs, Machines: machines, Seed: 7}
	in := workload.Chains(cfg, machines)
	if tree {
		in = workload.OutTree(cfg)
	}
	return New(in).Burst(0, 0.3, 0.9, 0.2).Burst(1, 0.3, 0.9, 0.2).Burst(2, 0.3, 0.9, 0.2)
}

// TestExactMakespanGolden pins ExactMakespan's mean and residual bit
// for bit: both strategies on every exactCases entry, and the adaptive
// strategy on three bursty workload instances of 180, 294 and 2,401
// closed sets (chains 14×3, chains 17×3, out-tree 17×4). The bits were
// recorded when the evaluator kept its mass in dense arrays over all
// 2^n unfinished sets, so they tie the lattice indexing to the dense
// one.
func TestExactMakespanGolden(t *testing.T) {
	type pin struct {
		mean, residual uint64
	}
	want := map[string]pin{
		"independent, regime on one machine/static":     {0x4094071f4ae6cb03, 0x3d665a0bd7a1d68f},
		"independent, regime on one machine/adaptive":   {0x400add3bcbde4913, 0x3d6c6524fe68907f},
		"chains, arrival/static":                        {0x40a2c30b03d2f71c, 0x3d70c114066f145f},
		"chains, arrival/adaptive":                      {0x4022a068f036cc0e, 0x3d7092870beae93c},
		"forest, outage across a run boundary/static":   {0x406e204cb4ade700, 0x3d6b90667d1746f4},
		"forest, outage across a run boundary/adaptive": {0x401475ab8e3ea67f, 0x3d607db92bfc854f},
		"forest, regime on every machine/static":        {0x406e2131d84ef723, 0x3d6407c0ca0e9b50},
		"forest, regime on every machine/adaptive":      {0x40207aa1320d7db9, 0x3d7126680502e582},
		"independent, fast flips/static":                {0x40940c098d20a4f3, 0x3d69004216d36ec8},
		"independent, fast flips/adaptive":              {0x40117e2c8f8dedc7, 0x3d65fff54a14860e},
		"chains, absorbing bad state/static":            {0x40a2c5813661e6db, 0x3d6e898360b8439f},
		"chains, absorbing bad state/adaptive":          {0x40201e70d6c536df, 0x3d7058c4037c310b},
		"nil-tail cycling schedule/static":              {0x4049cd1c86ed1775, 0x3d70f46d9750550b},
		"nil-tail cycling schedule/adaptive":            {0x401e2a8ef54d010f, 0x3d6ffffae5445332},
		"step cap inside a run/static":                  {0x402be9d7510cfe66, 0x3fee9d7510cfe65b},
		"step cap inside a run/adaptive":                {0x4016643cc4919a2a, 0x3fa14d61e42e5a06},
		"chains 14x3/adaptive":                          {0x40271046e4a47d79, 0x3d70ef07f8533812}, // 11.531790871695863
		"chains 17x3/adaptive":                          {0x402dc4fb97892bfd, 0x3d70afc3902a1ded}, // 14.884731994146927
		"out-tree 17x4/adaptive":                        {0x4025715924a94146, 0x3d6be9ed01ed208f}, // 10.72138323370076
	}
	type run struct {
		name     string
		sc       *Scenario
		strat    Strategy
		maxSteps int
	}
	var runs []run
	for _, c := range exactCases(t) {
		for _, strat := range []Strategy{NewStatic(c.sc, c.pol), NewAdaptive(c.sc)} {
			runs = append(runs, run{c.name, c.sc, strat, c.maxSteps})
		}
	}
	for _, c := range []struct {
		name           string
		jobs, machines int
		tree           bool
	}{{"chains 14x3", 14, 3, false}, {"chains 17x3", 17, 3, false}, {"out-tree 17x4", 17, 4, true}} {
		sc := burstyWorkload(c.jobs, c.machines, c.tree)
		runs = append(runs, run{c.name, sc, NewAdaptive(sc), 100_000})
	}
	if len(runs) != len(want) {
		t.Fatalf("%d runs, %d pins", len(runs), len(want))
	}
	for _, r := range runs {
		key := r.name + "/" + r.strat.Name()
		mean, residual, err := ExactMakespan(r.sc, r.strat, r.maxSteps)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if got := (pin{math.Float64bits(mean), math.Float64bits(residual)}); got != want[key] {
			t.Errorf("%s: (mean, residual) = (%v, %v), pinned (%v, %v)", key, mean, residual,
				math.Float64frombits(want[key].mean), math.Float64frombits(want[key].residual))
		}
	}
}

// TestExactMakespanChains20x4 evaluates chains 20×4 with three regime
// machines: 1,296 closed sets × 2^3 regime vectors, where all 2^20
// unfinished sets would need 2^23 states. The dynamic walk must land
// within 4 standard errors of the value.
func TestExactMakespanChains20x4(t *testing.T) {
	sc := burstyWorkload(20, 4, false)
	strat := NewAdaptive(sc)
	want := exact(t, sc, strat, 100_000)
	sum, _, _, err := EstimateInfo(sc, strat, pinReps, 100_000, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	within4SE(t, "chains 20x4", sum, want)
}
