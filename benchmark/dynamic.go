package main

import (
	"fmt"
	"time"

	"suu"
	"suu/internal/core"
	"suu/internal/dyn"
	"suu/internal/solve"
	"suu/internal/workload"
)

// T15's dynamics: an arrival ramp, an early outage of machine 0, and a
// hidden burst regime on every machine at one of two intensities.
const (
	rampSpacing          = 2
	outageFrom, outageTo = 4, 10
)

var bursts = []struct {
	name                string
	p0, alpha, severity float64
}{
	{"moderate", 0.15, 0.90, 0.35},
	{"heavy", 0.30, 0.95, 0.10},
}

// adaptiveSizes straddle the adaptive compile budget: 12×4 compiles to
// the transition-table engine, 32×8 falls back to the generic step
// engine. The generic engine costs ~30 µs a step, so 32×8 runs fewer
// repetitions (one 256-rep chunk, so one worker) to keep ops short
// enough that a run holds a thousand of them. (The one-shot estimator
// caps its compile attempt at 64×reps states, half the budget
// sim.Prepare tries in the traced op; 128 repetitions would match them
// but halve the ops a run holds.)
var adaptiveSizes = []struct{ jobs, machines, reps int }{
	{12, 4, 1024},
	{32, 8, 64},
}

const (
	// dynamicPerKind is how many distinct adaptive instances and
	// scenarios the stream cycles through (see staticPerClass).
	dynamicPerKind = 512
	// scenarioReps keeps the oblivious scenario walk, which averages
	// thousands of steps per repetition under the outage and bursts,
	// near the cost of the other ops.
	scenarioReps = 32
)

// scenarioInstance is one T15-shaped scenario in both forms.
type scenarioInstance struct {
	libInstance
	sc  *dyn.Scenario
	pub *suu.Scenario
}

// adaptiveInstance is one adaptive op's input and repetition count.
type adaptiveInstance struct {
	libInstance
	reps int
}

type dynamicRunner struct {
	adaptive  [][]adaptiveInstance // per adaptiveSizes entry
	scenarios []scenarioInstance
	scenReps  int
	seed      int64
}

func setupDynamic(seed int64, tiny bool) (runner, error) {
	r := &dynamicRunner{scenReps: scenarioReps, seed: seed}
	per := dynamicPerKind
	scenN, scenM := 16, 4
	if tiny {
		r.scenReps, per = 16, 2
		scenN = 8
	}
	r.adaptive = make([][]adaptiveInstance, len(adaptiveSizes))
	for i := 0; i < per; i++ {
		base := seed*1_000_003 + int64(i)
		for si, sz := range adaptiveSizes {
			if tiny {
				sz.jobs, sz.machines, sz.reps = sz.jobs/4, sz.machines/2, 32
			}
			li, err := newLibInstance(fmt.Sprintf("adaptive-%dx%d", sz.jobs, sz.machines),
				workload.Independent(workload.Config{Jobs: sz.jobs, Machines: sz.machines, Seed: base + int64(si)*250_000}))
			if err != nil {
				return nil, err
			}
			r.adaptive[si] = append(r.adaptive[si], adaptiveInstance{li, sz.reps})
		}

		b := bursts[i%len(bursts)]
		in := workload.Independent(workload.Config{Jobs: scenN, Machines: scenM, Seed: base + 500_000})
		li, err := newLibInstance("scenario-"+b.name, in)
		if err != nil {
			return nil, err
		}
		si := scenarioInstance{libInstance: li}
		si.sc = dyn.New(in)
		si.pub = suu.NewScenario(si.x)
		for j, at := range workload.ArrivalRamp(in.N, rampSpacing) {
			if at > 0 {
				si.sc.ArriveAt(j, at)
				si.pub.ArriveAt(j, at)
			}
		}
		si.sc.Breakdown(0, outageFrom, outageTo).Burst(-1, b.p0, b.alpha, b.severity)
		si.pub.Breakdown(0, outageFrom, outageTo).Burst(-1, b.p0, b.alpha, b.severity)
		if err := si.pub.Validate(); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
		r.scenarios = append(r.scenarios, si)
	}
	for k := 0; k < dynamicKinds; k++ {
		if s := r.op(0, k, nil, false); s.err != nil {
			return nil, s.err
		}
	}
	return r, nil
}

func (r *dynamicRunner) clients() int                 { return 1 }
func (r *dynamicRunner) counters() map[string]float64 { return nil }
func (r *dynamicRunner) close()                       {}

// dynamicKinds is the op cycle: an adaptive op at 12×4, a scenario op,
// an adaptive op at 32×8. With three kinds of distinct cost no median
// falls on the seam between two clusters of samples.
const dynamicKinds = 3

// op cycles an adaptive op (SUU-I-ALG built and estimated) below and
// above the compile budget with a scenario op (the static schedule
// built, then the scenario estimated obliviously, adaptively and
// rolling).
func (r *dynamicRunner) op(_, k int, rec *recorder, layered bool) opSample {
	seed := r.seed + int64(k)
	i := k / dynamicKinds
	if kind := k % dynamicKinds; kind != 1 {
		li := r.adaptive[kind/2][i%len(r.adaptive[kind/2])]
		if layered {
			return r.adaptiveLayered(li, k, seed, rec)
		}
		return r.adaptivePublic(li, seed)
	}
	si := r.scenarios[i%len(r.scenarios)]
	var out opSample
	if layered {
		out = r.scenarioLayered(si, k, seed, rec)
	} else {
		out = r.scenarioPublic(si, seed)
	}
	// One estimate sample per op, as for every other op.
	var sum float64
	for _, v := range out.estMS {
		sum += v
	}
	out.estMS = []float64{sum}
	return out
}

func (r *dynamicRunner) adaptivePublic(li adaptiveInstance, seed int64) opSample {
	start := time.Now()
	s, err := suu.Adaptive(li.x, suu.WithSeed(seed))
	built := time.Now()
	if err != nil {
		return opSample{opMS: ms(built.Sub(start)), err: fmt.Errorf("%s: %w", li.class, err)}
	}
	est, err := s.EstimateMakespan(li.x, li.reps, suu.WithSeed(seed), suu.WithWorkers(2))
	done := time.Now()
	out := opSample{
		opMS:    ms(done.Sub(start)),
		solveMS: []float64{ms(built.Sub(start))},
		estMS:   []float64{ms(done.Sub(built))},
		reps:    li.reps,
		err:     err,
	}
	if err == nil {
		out.err = checkEstimate(li.class, est.Runs, est.Incomplete, li.reps, est.Min, li.lower)
	}
	return out
}

func (r *dynamicRunner) adaptiveLayered(li adaptiveInstance, k int, seed int64, rec *recorder) opSample {
	rec.beginOp(k)
	defer rec.endOp()
	par := core.DefaultParams()
	par.Seed = seed
	sol, _ := solve.Get("adaptive")
	start := time.Now()
	rec.begin("model.validate")
	err := li.in.Validate()
	rec.end()
	var res *solve.Result
	if err == nil {
		res, err = layeredBuildWith(sol, li.in, par, rec)
	}
	built := time.Now()
	if err != nil {
		return opSample{opMS: ms(built.Sub(start)), err: fmt.Errorf("%s: %w", li.class, err)}
	}
	sum, inc, prep, walk := layeredEstimate(li.in, res.Policy, li.reps, seed, rec)
	done := time.Now()
	out := opSample{
		opMS:    ms(done.Sub(start)),
		solveMS: []float64{ms(built.Sub(start))},
		estMS:   []float64{ms(done.Sub(built))},
		reps:    li.reps,
		err:     checkEstimate(li.class, sum.N, inc, li.reps, sum.Min, li.lower),
	}
	if rec != nil {
		probeMSM(li.in, seed, rec)
		probeWalk1(prep, li.reps, seed, walk, rec)
	}
	return out
}

func (r *dynamicRunner) scenarioPublic(si scenarioInstance, seed int64) opSample {
	start := time.Now()
	s, err := suu.Solve(si.x, suu.WithSeed(seed))
	built := time.Now()
	out := opSample{solveMS: []float64{ms(built.Sub(start))}}
	if err != nil {
		out.opMS, out.err = ms(built.Sub(start)), fmt.Errorf("%s solve: %w", si.class, err)
		return out
	}
	opts := []suu.Option{suu.WithSeed(seed), suu.WithWorkers(2)}
	estimates := []struct {
		name string
		run  func() (suu.Estimate, error)
	}{
		{"oblivious", func() (suu.Estimate, error) { return si.pub.EstimateMakespan(s, r.scenReps, opts...) }},
		{"adaptive", func() (suu.Estimate, error) { return si.pub.EstimateAdaptive(r.scenReps, opts...) }},
		{"rolling", func() (suu.Estimate, error) { return si.pub.EstimateRolling(r.scenReps, opts...) }},
	}
	for _, e := range estimates {
		t := time.Now()
		est, err := e.run()
		out.estMS = append(out.estMS, ms(time.Since(t)))
		out.reps += r.scenReps
		if err == nil {
			err = checkEstimate(si.class+" "+e.name, est.Runs, est.Incomplete, r.scenReps, est.Min, si.lower)
		} else {
			err = fmt.Errorf("%s %s: %w", si.class, e.name, err)
		}
		if err != nil && out.err == nil {
			out.err = err
		}
	}
	out.opMS = ms(time.Since(start))
	return out
}

func (r *dynamicRunner) scenarioLayered(si scenarioInstance, k int, seed int64, rec *recorder) opSample {
	rec.beginOp(k)
	defer rec.endOp()
	par := core.DefaultParams()
	par.Seed = seed
	start := time.Now()
	res, err := layeredBuild(si.in, par, rec)
	built := time.Now()
	out := opSample{solveMS: []float64{ms(built.Sub(start))}}
	if err != nil {
		out.opMS, out.err = ms(built.Sub(start)), fmt.Errorf("%s: %w", si.class, err)
		return out
	}
	estimate := func(name string, strat dyn.Strategy) {
		rec.begin("dyn.estimate." + name)
		t := time.Now()
		sum, inc, _, err := dyn.EstimateInfo(si.sc, strat, r.scenReps, maxSteps, seed, 2)
		d := time.Since(t)
		rec.end()
		rec.add("dyn.walk_ns", float64(d.Nanoseconds()))
		rec.add("dyn.steps", sum.Mean*float64(sum.N))
		out.estMS = append(out.estMS, ms(d))
		out.reps += r.scenReps
		if err == nil {
			err = checkEstimate(si.class+" "+name, sum.N, inc, r.scenReps, sum.Min, si.lower)
		}
		if err != nil && out.err == nil {
			out.err = err
		}
	}
	estimate("oblivious", dyn.NewStatic(si.sc, res.Policy))
	estimate("adaptive", dyn.NewAdaptive(si.sc))
	t := time.Now()
	rec.begin("dyn.rolling_init")
	rolling, err := dyn.NewRolling(si.sc, "", par)
	rec.end()
	if err != nil {
		out.err = fmt.Errorf("%s rolling: %w", si.class, err)
	} else {
		estimate("rolling", rolling)
		// The public EstimateRolling builds the strategy inside the
		// estimate call, so its set-up belongs to the estimate sample.
		out.estMS[len(out.estMS)-1] = ms(time.Since(t))
	}
	out.opMS = ms(time.Since(start))
	if rec != nil {
		if err := probeLP(si.in, rec); err != nil && out.err == nil {
			out.err = err
		}
		probeMSM(si.in, seed, rec)
	}
	return out
}
