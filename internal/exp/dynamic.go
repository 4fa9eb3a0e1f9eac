package exp

import (
	"fmt"
	"time"

	"suu/internal/dyn"
	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/sim"
	"suu/internal/solve"
	"suu/internal/stats"
	"suu/internal/workload"
)

// T15 measures the price of rigidity under dynamics: the same
// instance run through a deterministic event timeline — an early
// outage of machine 0, optionally staggered job arrivals, optionally
// a hidden Markov failure-burst regime on every machine — evaluated
// by three strategies. "oblivious" deploys the static Solve schedule
// unchanged; "adaptive" reruns the masked MSM greedy on whatever is
// eligible and up; "rolling" re-solves the surviving sub-instance at
// every event epoch (warm-starting the LP from the initial solve's
// basis). The oblivious-vs-rolling ratio is the adaptivity gap the
// dynamic layer exists to expose. Every cell runs through the
// "t15-dyn" custom evaluator, so the table shards like any grid.
func T15(cfg Config) *Table {
	g, _ := GridDriverByID("T15")
	return runGridDriver(cfg, g)
}

func init() {
	cellEvals["t15-dyn"] = evalT15Dynamic
}

// t15Spacings are the arrival-ramp spacings swept (0 = everything
// present at step 0).
var t15Spacings = []int{0, 2}

// t15Bursts are the regime intensities swept, in the mixture
// parameterization (stationary bad fraction, persistence, severity).
var t15Bursts = []struct {
	name                string
	p0, alpha, severity float64
}{
	{"none", 0, 0, 0},
	{"moderate", 0.15, 0.90, 0.35},
	{"heavy", 0.30, 0.95, 0.10},
}

// t15Strategies are the cell "solver" ids the custom evaluator
// dispatches on.
var t15Strategies = []string{"oblivious", "adaptive", "rolling"}

// t15Outage is the breakdown window every T15 cell carries: machine 0
// down for steps [4, 10) — early enough that the oblivious prefix
// planned around it, late enough that work is already in flight.
const t15OutageFrom, t15OutageTo = 4, 10

// t15MaxSteps caps every T15 trajectory.
const t15MaxSteps = 5_000_000

// t15Size returns the instance size.
func t15Size(cfg Config) (int, int) {
	if cfg.Quick {
		return 12, 3
	}
	return 16, 4
}

// t15Trials keeps the table cheap: rolling cells re-solve an LP per
// novel event state, so trials stay below the generic trials().
func t15Trials(cfg Config) int {
	if cfg.Quick {
		return 1
	}
	return 2
}

// t15Plan declares the grid: one spec per (spacing, burst) point,
// three strategy cells each. The point's Arg encodes the dynamics
// coordinate (spacing index × bursts + burst index); the independent
// generator ignores Arg, so it is free to ride in the seed and the
// cell fingerprint.
func t15Plan(cfg Config) GridPlan {
	n, m := t15Size(cfg)
	plan := GridPlan{ID: "T15"}
	for si := range t15Spacings {
		for bi := range t15Bursts {
			p := GridPoint{Scenario: "independent", Jobs: n, Machines: m, Arg: si*len(t15Bursts) + bi}
			plan.Specs = append(plan.Specs, GridSpec{
				Points:  []GridPoint{p},
				Solvers: t15Strategies,
				Trials:  t15Trials(cfg),
				Eval:    "t15-dyn",
			})
		}
	}
	return plan
}

// t15Scenario rebuilds a cell's scenario from its Arg coordinate —
// shared by the evaluator and the bench section so both always
// measure the same dynamics.
func t15Scenario(in *model.Instance, arg int) *dyn.Scenario {
	spacing := t15Spacings[arg/len(t15Bursts)]
	burst := t15Bursts[arg%len(t15Bursts)]
	sc := dyn.New(in)
	for j, at := range workload.ArrivalRamp(in.N, spacing) {
		if at > 0 {
			sc.ArriveAt(j, at)
		}
	}
	sc.Breakdown(0, t15OutageFrom, t15OutageTo)
	if burst.p0 > 0 {
		sc.Burst(-1, burst.p0, burst.alpha, burst.severity)
	}
	return sc
}

// evalT15Dynamic is the "t15-dyn" cell evaluator: regenerate the
// cell's instance, rebuild its scenario from Arg, run the strategy
// named by the cell's Solver. Construction randomness derives from
// the (point, trial) seed — identical across the three strategies, so
// rolling's initial plan IS the oblivious schedule and the comparison
// isolates adaptation. All randomness derives from cell coordinates;
// the cell shards like any other.
func evalT15Dynamic(cfg Config, c GridCell) GridResult {
	in, seed, err := cellInstance(cfg, c)
	if err != nil {
		return GridResult{Cell: c, Err: err}
	}
	sc := t15Scenario(in, c.Point.Arg)
	par := paramsWithSeed(sim.SeedFor(seed, "build"))
	var strat dyn.Strategy
	kind := ""
	switch c.Solver {
	case "oblivious":
		_, res, err := solve.Auto(in, par)
		if err != nil {
			return GridResult{Cell: c, Class: in.Prec.Classify().String(), Err: err}
		}
		strat = dyn.NewStatic(sc, res.Policy)
		kind = res.Kind + ", deployed unchanged"
	case "adaptive":
		strat = dyn.NewAdaptive(sc)
		kind = "masked MSM greedy (Thm 3.3, availability-aware)"
	case "rolling":
		roll, err := dyn.NewRolling(sc, "", par)
		if err != nil {
			return GridResult{Cell: c, Class: in.Prec.Classify().String(), Err: err}
		}
		strat = roll
		kind = "rolling-horizon re-solve (warm LP basis)"
	default:
		return GridResult{Cell: c, Err: fmt.Errorf("exp: unknown T15 strategy %q", c.Solver)}
	}
	sum, incomplete, eng, err := dyn.EstimateInfo(sc, strat, cfg.reps(), t15MaxSteps, sim.SeedFor(seed, "sim"), 1)
	if err != nil {
		return GridResult{Cell: c, Class: in.Prec.Classify().String(), Err: err}
	}
	mean := sum.Mean
	if incomplete > 0 {
		mean = -1
	}
	return GridResult{
		Cell:   c,
		Class:  in.Prec.Classify().String(),
		Kind:   kind,
		Mean:   mean,
		Engine: eng.Engine,
	}
}

// renderT15 aggregates each point's trials per strategy and reports
// the oblivious/adaptive means relative to rolling — the adaptivity
// gap column the acceptance bar reads.
func renderT15(cfg Config, results []GridResult) *Table {
	n, m := t15Size(cfg)
	t := &Table{
		ID:         "T15",
		Title:      "Dynamic scenarios: oblivious vs adaptive vs rolling re-solve",
		PaperBound: "beyond the paper's static model; strategies keep their per-class guarantees on each epoch's sub-instance",
		Header:     []string{"spacing", "burst", "n", "m", "strategy", "E[makespan]", "vs rolling"},
	}
	trials := t15Trials(cfg)
	off := 0
	for si := range t15Spacings {
		for bi := range t15Bursts {
			block := results[off : off+len(t15Strategies)*trials]
			off += len(t15Strategies) * trials
			means := make([]float64, len(t15Strategies))
			ok := true
			for sidx := range t15Strategies {
				var vals []float64
				for k := 0; k < trials; k++ {
					r := block[sidx*trials+k]
					if r.Err == nil && r.Mean > 0 {
						vals = append(vals, r.Mean)
					}
				}
				if len(vals) == 0 {
					ok = false
					continue
				}
				means[sidx] = stats.Mean(vals)
			}
			rolling := means[len(t15Strategies)-1]
			for sidx, name := range t15Strategies {
				row := []string{d(t15Spacings[si]), t15Bursts[bi].name, d(n), d(m), name}
				if !ok || means[sidx] <= 0 {
					row = append(row, "did not finish", "—")
				} else if rolling > 0 {
					row = append(row, f2(means[sidx]), f3(means[sidx]/rolling))
				} else {
					row = append(row, f2(means[sidx]), "—")
				}
				t.Rows = append(t.Rows, row)
			}
		}
	}
	t.Notes = "Every cell carries the machine-0 outage [4,10); spacing staggers arrivals (job j released at step j·spacing); bursts are hidden per-machine Markov regimes (stationary bad fraction / persistence / severity in the legend above). All three strategies share each cell's instance, construction seed and simulation streams, so 'vs rolling' compares decisions, not luck."
	return t
}

// DynamicBench is one row of BENCH_sim.json's dynamic section: the
// three strategies' expected makespans on one T15 dynamics cell, and
// the oblivious-vs-rolling adaptivity gap.
type DynamicBench struct {
	Family   string `json:"family"`
	Jobs     int    `json:"jobs"`
	Machines int    `json:"machines"`
	// Spacing is the arrival ramp (0 = static arrivals); Burst names
	// the regime intensity; the outage window rides in every row.
	Spacing    int     `json:"spacing"`
	Burst      string  `json:"burst"`
	OutageFrom int     `json:"outage_from"`
	OutageTo   int     `json:"outage_to"`
	Reps       int     `json:"reps"`
	Engine     string  `json:"engine"`
	Oblivious  float64 `json:"oblivious_mean"`
	Adaptive   float64 `json:"adaptive_mean"`
	Rolling    float64 `json:"rolling_mean"`
	// GapVsRolling = Oblivious/Rolling — the adaptivity gap; > 1 means
	// re-solving at event epochs beat replaying the static schedule.
	GapVsRolling float64 `json:"gap_vs_rolling"`
	// ObliviousMS times the oblivious estimate (best of three at
	// Reps); ObliviousStepwiseMS times the same schedule behind
	// sched.PolicyFunc, which forces the per-step walk; SkipSpeedup is
	// their ratio.
	ObliviousMS         float64 `json:"oblivious_ms"`
	ObliviousStepwiseMS float64 `json:"oblivious_stepwise_ms"`
	SkipSpeedup         float64 `json:"skip_speedup"`
	Error               string  `json:"error,omitempty"`
}

// t15StreamingSpacing indexes spacing 2 in t15Spacings: the bursty
// streaming column the dynamic bench section records.
const t15StreamingSpacing = 1

// t15StreamingPoint is the T15 point of the streaming column at burst
// index bi.
func t15StreamingPoint(cfg Config, bi int) GridPoint {
	n, m := t15Size(cfg)
	return GridPoint{Scenario: "independent", Jobs: n, Machines: m, Arg: t15StreamingSpacing*len(t15Bursts) + bi}
}

// DynamicBenchmarks fills the dynamic section by evaluating the
// staggered-arrival (spacing 2) T15 column at every burst intensity
// through the same "t15-dyn" evaluator the table uses, so the
// persisted gap and the rendered table can never disagree about what
// was measured.
func DynamicBenchmarks(cfg Config) []DynamicBench {
	n, m := t15Size(cfg)
	var out []DynamicBench
	for bi, b := range t15Bursts {
		p := t15StreamingPoint(cfg, bi)
		row := DynamicBench{
			Family: "independent", Jobs: n, Machines: m,
			Spacing: t15Spacings[t15StreamingSpacing], Burst: b.name,
			OutageFrom: t15OutageFrom, OutageTo: t15OutageTo,
			Reps: cfg.reps(),
		}
		means := map[string]float64{}
		for _, strat := range t15Strategies {
			r := evalT15Dynamic(cfg, GridCell{Point: p, Solver: strat, Eval: "t15-dyn"})
			if r.Err != nil {
				row.Error = r.Err.Error()
				break
			}
			if r.Mean < 0 {
				row.Error = fmt.Sprintf("%s hit the step cap", strat)
				break
			}
			means[strat] = r.Mean
			row.Engine = r.Engine
		}
		if row.Error == "" {
			row.Oblivious = means["oblivious"]
			row.Adaptive = means["adaptive"]
			row.Rolling = means["rolling"]
			if row.Rolling > 0 {
				row.GapVsRolling = row.Oblivious / row.Rolling
			}
			var err error
			row.ObliviousMS, row.ObliviousStepwiseMS, err = dynamicSkipTiming(cfg, p)
			if err != nil {
				row.Error = err.Error()
			} else {
				row.SkipSpeedup = row.ObliviousStepwiseMS / row.ObliviousMS
			}
		}
		out = append(out, row)
	}
	return out
}

// dynamicSkipTiming times the oblivious strategy of the T15 cell at p,
// best of three at the cell's repetitions: the deployed schedule,
// whose walk jumps over runs of steps that trial nothing, and the same
// schedule behind sched.PolicyFunc, which hides the *sched.Oblivious
// and so forces the per-step walk. The two alternate, so a slow spell
// of the host falls on both. They must agree on every draw.
func dynamicSkipTiming(cfg Config, p GridPoint) (skipMS, stepwiseMS float64, err error) {
	in, seed, err := cellInstance(cfg, GridCell{Point: p})
	if err != nil {
		return 0, 0, err
	}
	sc := t15Scenario(in, p.Arg)
	_, res, err := solve.Auto(in, paramsWithSeed(sim.SeedFor(seed, "build")))
	if err != nil {
		return 0, 0, err
	}
	timed := func(pol sched.Policy, best *float64) (stats.Summary, error) {
		start := time.Now()
		s, _, _, err := dyn.EstimateInfo(sc, dyn.NewStatic(sc, pol), cfg.reps(), t15MaxSteps, sim.SeedFor(seed, "sim"), 1)
		if e := time.Since(start).Seconds() * 1000; *best == 0 || e < *best {
			*best = e
		}
		return s, err
	}
	for try := 0; try < 3; try++ {
		skipSum, err := timed(res.Policy, &skipMS)
		if err != nil {
			return 0, 0, err
		}
		stepSum, err := timed(sched.PolicyFunc(res.Policy.Assign), &stepwiseMS)
		if err != nil {
			return 0, 0, err
		}
		if skipSum != stepSum {
			return 0, 0, fmt.Errorf("exp: skipping walk %+v diverged from the per-step walk %+v", skipSum, stepSum)
		}
	}
	return skipMS, stepwiseMS, nil
}
