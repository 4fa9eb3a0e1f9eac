package main

import (
	"fmt"
	"time"

	"suu"
	"suu/internal/core"
	"suu/internal/model"
	"suu/internal/workload"
)

// libInstance is one generated instance in both forms: the public
// suu.Instance the untraced run calls the library with, and the model
// the traced run hands to each module.
type libInstance struct {
	class string
	in    *model.Instance
	x     *suu.Instance
	lower float64
}

func newLibInstance(class string, in *model.Instance) (libInstance, error) {
	var edges [][2]int
	for u := 0; u < in.N; u++ {
		for _, v := range in.Prec.Succs(u) {
			edges = append(edges, [2]int{u, v})
		}
	}
	x, err := suu.FromMatrix(in.P, edges)
	if err != nil {
		return libInstance{}, fmt.Errorf("%s instance: %w", class, err)
	}
	return libInstance{class: class, in: in, x: x, lower: trivialLower(in)}, nil
}

// staticClass is one precedence class of the static-oblivious stream
// and the construction suu.Solve dispatches it to.
type staticClass struct {
	name           string
	jobs, machines int
	gen            func(c workload.Config) *model.Instance
}

// staticClasses cycle through the classes the paper covers plus the
// general fallback: independent → Thm 4.5 (LP2), chains → Thm 4.4,
// out-/in-forest → Thm 4.8, mixed forest → Thm 4.7, layered → level
// fallback.
var staticClasses = []staticClass{
	{"independent", 64, 16, workload.Independent},
	{"chains", 96, 12, func(c workload.Config) *model.Instance { return workload.Chains(c, 12) }},
	{"out-forest", 64, 8, workload.OutTree},
	{"in-forest", 64, 8, workload.InTree},
	{"mixed-forest", 96, 12, func(c workload.Config) *model.Instance { return workload.MixedForest(c, 8) }},
	{"general", 64, 8, func(c workload.Config) *model.Instance { return workload.LayeredWidth(c, 8, 0.2) }},
}

const (
	// staticPerClass is how many distinct instances of each class the
	// stream cycles through: about as many as a run makes ops, so the
	// tail percentiles rest on many instances, not on the few slowest
	// of a small pool.
	staticPerClass = 512
	// staticReps is the estimate's repetition count: enough that the
	// walk costs about as much as the construction.
	staticReps = 2048
)

type staticRunner struct {
	pool []libInstance
	reps int
	seed int64
}

func setupStatic(seed int64, tiny bool) (runner, error) {
	r := &staticRunner{reps: staticReps, seed: seed}
	perClass := staticPerClass
	if tiny {
		r.reps, perClass = 64, 2
	}
	for i := 0; i < perClass; i++ {
		for ci, c := range staticClasses {
			jobs, machines := c.jobs, c.machines
			if tiny {
				jobs, machines = jobs/8, machines/4
			}
			cfg := workload.Config{Jobs: jobs, Machines: machines, Seed: seed*1_000_003 + int64(i*len(staticClasses)+ci)}
			li, err := newLibInstance(c.name, c.gen(cfg))
			if err != nil {
				return nil, err
			}
			r.pool = append(r.pool, li)
		}
	}
	// One untimed pass over the classes settles the heap and the
	// instances' lazily built backings before the clock starts.
	for k := range staticClasses {
		if s := r.op(0, k, nil, false); s.err != nil {
			return nil, s.err
		}
	}
	return r, nil
}

func (r *staticRunner) clients() int                 { return 1 }
func (r *staticRunner) counters() map[string]float64 { return nil }
func (r *staticRunner) close()                       {}

func (r *staticRunner) op(_, k int, rec *recorder, layered bool) opSample {
	li := r.pool[k%len(r.pool)]
	seed := r.seed + int64(k)
	if layered {
		return r.opLayered(li, k, seed, rec)
	}
	start := time.Now()
	s, err := suu.Solve(li.x, suu.WithSeed(seed))
	built := time.Now()
	if err != nil {
		return opSample{opMS: ms(built.Sub(start)), err: fmt.Errorf("%s solve: %w", li.class, err)}
	}
	est, err := s.EstimateMakespan(li.x, r.reps, suu.WithSeed(seed), suu.WithWorkers(2))
	done := time.Now()
	out := opSample{
		opMS:    ms(done.Sub(start)),
		solveMS: []float64{ms(built.Sub(start))},
		estMS:   []float64{ms(done.Sub(built))},
		reps:    r.reps,
		err:     err,
	}
	if err == nil {
		out.err = checkEstimate(li.class, est.Runs, est.Incomplete, r.reps, est.Min, li.lower)
	}
	return out
}

// opLayered is the same op through each module's own functions, one
// span per call, followed by the probes.
func (r *staticRunner) opLayered(li libInstance, k int, seed int64, rec *recorder) opSample {
	rec.beginOp(k)
	defer rec.endOp()
	par := core.DefaultParams()
	par.Seed = seed
	start := time.Now()
	res, err := layeredBuild(li.in, par, rec)
	built := time.Now()
	if err != nil {
		return opSample{opMS: ms(built.Sub(start)), err: fmt.Errorf("%s: %w", li.class, err)}
	}
	sum, inc, prep, walk := layeredEstimate(li.in, res.Policy, r.reps, seed, rec)
	done := time.Now()
	out := opSample{
		opMS:    ms(done.Sub(start)),
		solveMS: []float64{ms(built.Sub(start))},
		estMS:   []float64{ms(done.Sub(built))},
		reps:    r.reps,
		err:     checkEstimate(li.class, sum.N, inc, r.reps, sum.Min, li.lower),
	}
	if rec != nil {
		if err := probeLP(li.in, rec); err != nil && out.err == nil {
			out.err = err
		}
		probeMSM(li.in, seed, rec)
		probeWalk1(prep, r.reps, seed, walk, rec)
	}
	return out
}
