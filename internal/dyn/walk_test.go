package dyn

import (
	"slices"
	"testing"

	"suu/internal/core"
	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/sim"
	"suu/internal/solve"
	"suu/internal/workload"
)

// skipCase is an oblivious schedule on a scenario chosen so that every
// bound on the walk's jumps decides some repetition's draws.
type skipCase struct {
	name     string
	sc       *Scenario
	pol      *sched.Oblivious
	maxSteps int
}

// skipPrefix is a prefix over fixture()'s six jobs: runs of eight
// identical steps, one of them all idle, two of them using machine 0
// only, followed by tail. omit replaces job 5 with Idle.
func skipPrefix(omit bool, tail sched.Tail) *sched.Oblivious {
	x := 5
	if omit {
		x = sched.Idle
	}
	I := sched.Idle
	base := sched.NewOblivious(3, []sched.Assignment{
		{0, 1, x},
		{x, I, I},
		{2, 3, I},
		{I, I, I},
		{4, I, I},
		{3, 4, 2},
	}, tail)
	return base.Replicate(8)
}

func skipCases(t *testing.T) []skipCase {
	t.Helper()
	in, _ := fixture()
	topo := func() *sched.Oblivious {
		return skipPrefix(false, &sched.TopoRoundRobin{M: 3, Order: []int{0, 1, 5, 2, 3, 4}})
	}
	cycling := skipPrefix(true, nil)
	solved := func(name string, in *model.Instance, sc *Scenario) skipCase {
		_, res, err := solve.Auto(in, core.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		pol, ok := res.Policy.(*sched.Oblivious)
		if !ok {
			t.Fatalf("%s: solver built %T, want *sched.Oblivious", name, res.Policy)
		}
		return skipCase{name: name, sc: sc, pol: pol, maxSteps: 100_000}
	}
	chains := workload.Chains(workload.Config{Jobs: 8, Machines: 3, Seed: 3}, 3)
	forest := workload.MixedForest(workload.Config{Jobs: 8, Machines: 3, Seed: 4}, 2)
	ramp := func(sc *Scenario, spacing int) *Scenario {
		for j, at := range workload.ArrivalRamp(sc.In.N, spacing) {
			sc.ArriveAt(j, at)
		}
		return sc
	}
	return []skipCase{
		// Job 5 arrives three steps into the run that assigns only it.
		{"topo tail, late arrival", New(in).ArriveAt(5, 11), topo(), 100_000},
		// Machine 0 goes down in the run that assigns only it and comes
		// back in the middle of the next run.
		{"outage across runs", New(in).Breakdown(0, 12, 19), topo(), 100_000},
		// Job 5 is never assigned, so every repetition hits the cap,
		// which falls five steps into an all-idle run.
		{"nil tail omits a job", New(in).Burst(1, 0.3, 0.8, 0.2), cycling, 3*48 + 3*8 + 5},
		{"regime on one machine", New(in).ArriveAt(5, 11).Burst(1, 0.3, 0.8, 0.2), topo(), 100_000},
		{"severity 0 on every machine", New(in).ArriveAt(5, 11).AddRegime(Regime{Machine: -1, GoodToBad: 0.1, BadToGood: 0.2}), topo(), 100_000},
		{"cap inside a run", New(in).ArriveAt(5, 11).Burst(-1, 0.2, 0.9, 0.3), topo(), 29},
		solved("chains", chains, ramp(New(chains), 2).Breakdown(0, 4, 10).Burst(-1, 0.15, 0.9, 0.35)),
		solved("forest", forest, ramp(New(forest), 3).Breakdown(1, 0, 25).Burst(2, 0.3, 0.95, 0.1)),
	}
}

// The walk jumps over steps that trial nothing. It must still draw
// exactly what the per-step walk of the same schedule draws: the same
// summary and incomplete count at any worker count, and per repetition
// the same makespan and the same final position of both streams. The
// per-step walk runs the schedule behind opaquePolicy, which hides the
// *sched.Oblivious.
func TestSkipMatchesStepwise(t *testing.T) {
	const reps = 300
	for _, c := range skipCases(t) {
		if c.sc.Static() {
			t.Fatalf("%s: scenario is static and would not walk", c.name)
		}
		skip := NewStatic(c.sc, c.pol)
		step := NewStatic(c.sc, opaquePolicy{pol: c.pol})
		sw, pw := skip.NewWalker(), step.NewWalker()
		runs, ok := sw.(*sched.Oblivious)
		if !ok {
			t.Fatalf("%s: the oblivious walker reports no runs", c.name)
		}
		if _, ok := pw.(*sched.Oblivious); ok {
			t.Fatalf("%s: an opaque policy reports runs", c.name)
		}

		// Every run end is a later step, every step before it assigns
		// what t does, and a run ends early only at the end of a prefix
		// cycle; past a tailed prefix every step is its own run.
		l := c.pol.Len()
		for t0 := 0; t0 < 3*l; t0++ {
			end := runs.RunEnd(t0)
			if end <= t0 {
				t.Fatalf("%s: runEnd(%d) = %d", c.name, t0, end)
			}
			for s := t0 + 1; s < end; s++ {
				if !slices.Equal(c.pol.At(s), c.pol.At(t0)) {
					t.Fatalf("%s: runEnd(%d) = %d, but step %d differs", c.name, t0, end, s)
				}
			}
			if t0 >= l && c.pol.Tail != nil {
				if end != t0+1 {
					t.Fatalf("%s: tail step %d reports run end %d", c.name, t0, end)
				}
			} else if end%l != 0 && slices.Equal(c.pol.At(end), c.pol.At(t0)) {
				t.Fatalf("%s: runEnd(%d) = %d ends inside a run", c.name, t0, end)
			}
		}

		tl, err := c.sc.compile()
		if err != nil {
			t.Fatal(err)
		}
		skipRun, stepRun := sim.NewTimelineRunner(c.sc.In, sw, tl), sim.NewTimelineRunner(c.sc.In, pw, tl)
		regSeed := sim.SeedFor(9, regimeLabel)
		capped := 0
		for r := int64(0); r < reps; r++ {
			var rng, reg, rngStep, regStep sim.Stream
			rng.Reseed(9, r)
			reg.Reseed(regSeed, r)
			rngStep.Reseed(9, r)
			regStep.Reseed(regSeed, r)
			got, gotDone := skipRun.RunTimeline(c.maxSteps, &rng, &reg)
			want, wantDone := stepRun.RunTimeline(c.maxSteps, &rngStep, &regStep)
			if got != want || gotDone != wantDone || rng != rngStep || reg != regStep {
				t.Fatalf("%s: rep %d: skipping walk %d/%v, per-step walk %d/%v, streams equal %v/%v",
					c.name, r, got, gotDone, want, wantDone, rng == rngStep, reg == regStep)
			}
			if !gotDone {
				capped++
			}
		}
		if c.maxSteps < 100_000 && capped == 0 {
			t.Fatalf("%s: no repetition reached the cap", c.name)
		}

		// A fresh strategy per call: its workers share the schedule.
		for _, workers := range []int{1, 2, 5} {
			want, wantInc, _, err := EstimateInfo(c.sc, step, reps, c.maxSteps, 9, workers)
			if err != nil {
				t.Fatal(err)
			}
			got, gotInc, eng, err := EstimateInfo(c.sc, NewStatic(c.sc, c.pol), reps, c.maxSteps, 9, workers)
			if err != nil {
				t.Fatal(err)
			}
			if eng.Engine != sim.EngineDynamic {
				t.Fatalf("%s: engine %q", c.name, eng.Engine)
			}
			if got != want || gotInc != wantInc {
				t.Fatalf("%s: workers=%d: skipping walk %+v/%d, per-step walk %+v/%d", c.name, workers, got, gotInc, want, wantInc)
			}
		}
	}
}
