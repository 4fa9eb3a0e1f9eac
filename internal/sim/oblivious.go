package sim

import (
	"suu/internal/model"
	"suu/internal/sched"
)

// Oblivious schedules fix every assignment in advance, which lets the
// estimator precompile the prefix once per call and then replay it
// event-wise instead of step-wise. The paper's constructions replicate
// each assignment Θ(σ) times, so a run spends almost all wall-clock
// steps on jobs that are already finished or not yet eligible; the
// step engine still scans all m machines at each of them. The
// compiled engine instead stores, per job, the sorted list of prefix
// steps that assign it — with the step's combined success probability
// and mass precomputed — and walks jobs in topological order: a job's
// eligibility step is determined by its predecessors' completion
// steps, and its own completion is sampled with exactly one uniform
// draw per (eligible, assigned) step, just like the step engine.
// Work per repetition is proportional to the number of completion
// trials actually performed, not to makespan × machines.
//
// Repetitions that survive the prefix fall back to the generic step
// engine for the tail, seeded with the state the walk produced.
type compiledOblivious struct {
	in        *model.Instance
	o         *sched.Oblivious
	prefixLen int
	topo      []int32
	// Occurrences grouped by job: job j's assigned prefix steps are
	// steps[offs[j]:offs[j+1]], ascending. succ is the combined
	// single-step completion probability 1-Π(1-p_ij) over the machines
	// assigned that step; mass is the (uncapped) Σ p_ij the step adds.
	offs  []int32
	steps []int32
	succ  []float64
	mass  []float64
}

// compileOblivious builds the per-job occurrence lists. It reads each
// run of equal prefix steps (sched.Oblivious.RunEnd) once and fills the
// run's occurrences from it, so the cost is O(runs × m + occurrences),
// paid once per Prepare and shared read-only by every worker. The
// tables are those of a per-step pass: a run's fail products and masses
// are the same multiplications and additions, over the same machines
// in the same order, as each of its steps would make.
func compileOblivious(in *model.Instance, o *sched.Oblivious) *compiledOblivious {
	n := in.N
	order, err := in.Prec.TopoOrder()
	if err != nil {
		return nil // cyclic: let the generic engine spin on it
	}
	c := &compiledOblivious{in: in, o: o, prefixLen: len(o.Steps)}
	c.topo = make([]int32, n)
	for k, j := range order {
		c.topo[k] = int32(j)
	}
	// First pass: find the runs and count each job's occurrences, one
	// per step of every run that assigns it.
	var ends []int32
	counts := make([]int32, n)
	last := make([]int32, n) // run start that last counted the job
	for j := range last {
		last[j] = -1
	}
	for t := 0; t < len(o.Steps); {
		end := o.RunEnd(t)
		ends = append(ends, int32(end))
		for _, j := range o.Steps[t] {
			if j == sched.Idle || j < 0 || j >= n || last[j] == int32(t) {
				continue
			}
			last[j] = int32(t)
			counts[j] += int32(end - t)
		}
		t = end
	}
	c.offs = make([]int32, n+1)
	for j := 0; j < n; j++ {
		c.offs[j+1] = c.offs[j] + counts[j]
	}
	total := int(c.offs[n])
	c.steps = make([]int32, total)
	c.succ = make([]float64, total)
	c.mass = make([]float64, total)
	// Second pass: per run, accumulate each assigned job's fail product
	// and mass over the machines, then fill one occurrence per step.
	next := make([]int32, n)
	copy(next, c.offs[:n])
	for j := range last {
		last[j] = -1
	}
	fail := make([]float64, n)
	mass := make([]float64, n)
	jobs := make([]int, 0, in.M)
	p := in.Flat()
	t := 0
	for _, end := range ends {
		jobs = jobs[:0]
		for i, j := range o.Steps[t] {
			if j == sched.Idle || j < 0 || j >= n {
				continue
			}
			pv := p[i*n+j]
			if last[j] != int32(t) {
				last[j] = int32(t)
				jobs = append(jobs, j)
				fail[j] = 1 - pv
				mass[j] = pv
			} else {
				fail[j] *= 1 - pv
				mass[j] += pv
			}
		}
		for _, j := range jobs {
			succ := 1 - fail[j]
			k := next[j]
			for s := t; s < int(end); s++ {
				c.steps[k] = int32(s)
				c.succ[k] = succ
				c.mass[k] = mass[j]
				k++
			}
			next[j] = k
		}
		t = int(end)
	}
	return c
}

// oblivRunner is one worker's mutable state for the compiled engine.
type oblivRunner struct {
	c    *compiledOblivious
	comp []int32 // completion step per job, -1 while unfinished
	mass []float64
	cont *Runner // lazily built generic engine for tail continuations
}

func (c *compiledOblivious) newRunner() *oblivRunner {
	return &oblivRunner{
		c:    c,
		comp: make([]int32, c.in.N),
		mass: make([]float64, c.in.N),
	}
}

// oblivDraw abstracts where the compiled walk's completion trials
// come from: the estimator's per-rep stream (seqDraw) or one lane of
// the bit-parallel engine's stream remap (remapDraw), which is what
// lets this walk double as the lane engine's exactness oracle. A type
// parameter rather than an interface value keeps the per-trial call
// devirtualized and the repetition allocation-free.
type oblivDraw interface {
	trial(k int, succ float64) bool
	tailRand() Rand
}

// seqDraw is the standard source: one Float64 per trial, in walk
// order, from the repetition's (seed, rep) stream; the tail continues
// on the same stream.
type seqDraw struct{ rng Rand }

func (d seqDraw) trial(_ int, succ float64) bool { return d.rng.Float64() < succ }
func (d seqDraw) tailRand() Rand                 { return d.rng }

// remapDraw is one lane of the lane stream remap (see lane.go):
// occurrence k's trial draws from the pinned position (k, 0) of the
// group's trial stream, and the tail continues on the rep's pinned
// tail stream.
type remapDraw struct {
	tr    *Stream
	tail  *Stream
	gseed int64
	lane  uint
}

func (d remapDraw) trial(k int, succ float64) bool {
	return laneBernoulli(d.tr, d.gseed, int64(k), 0, succ, uint64(1)<<d.lane)>>d.lane&1 == 1
}
func (d remapDraw) tailRand() Rand { return d.tail }

// run simulates one repetition. Draw-for-draw it performs the same
// completion trials as the step engine, only ordered by job instead
// of by step, so makespan and mass distributions are identical.
func (r *oblivRunner) run(maxSteps int, rng Rand) (int, bool) {
	return oblivRun(r, maxSteps, seqDraw{rng: rng})
}

// oblivRun is the compiled walk over an arbitrary draw source.
func oblivRun[D oblivDraw](r *oblivRunner, maxSteps int, d D) (int, bool) {
	c := r.c
	in := c.in
	cap := c.prefixLen
	if maxSteps < cap {
		cap = maxSteps
	}
	unfinished := 0
	maxComp := -1
	for _, j32 := range c.topo {
		j := int(j32)
		r.mass[j] = 0
		r.comp[j] = -1
		elig := 0
		blocked := false
		for _, pr := range in.Prec.Preds(j) {
			pc := r.comp[pr]
			if pc < 0 {
				blocked = true
				break
			}
			if int(pc)+1 > elig {
				elig = int(pc) + 1
			}
		}
		if blocked {
			unfinished++
			continue
		}
		lo, hi := int(c.offs[j]), int(c.offs[j+1])
		if elig > 0 {
			// Lower-bound search for the first occurrence >= elig.
			l, h := lo, hi
			for l < h {
				mid := int(uint(l+h) >> 1)
				if c.steps[mid] < int32(elig) {
					l = mid + 1
				} else {
					h = mid
				}
			}
			lo = l
		}
		done := false
		for k := lo; k < hi; k++ {
			t := int(c.steps[k])
			if t >= cap {
				break
			}
			r.mass[j] += c.mass[k]
			if d.trial(k, c.succ[k]) {
				r.comp[j] = int32(t)
				if t > maxComp {
					maxComp = t
				}
				done = true
				break
			}
		}
		if !done {
			unfinished++
		}
	}
	if unfinished == 0 {
		return maxComp + 1, true
	}
	if maxSteps <= c.prefixLen {
		return maxSteps, false
	}
	return r.continueTail(unfinished, maxSteps, d.tailRand())
}

// continueTail finishes a repetition that outlived the prefix: it
// seeds the generic step engine with the post-prefix state and runs it
// to the cap.
func (r *oblivRunner) continueTail(unfinished, maxSteps int, rng Rand) (int, bool) {
	c := r.c
	if r.cont == nil {
		r.cont = NewRunner(c.in, c.o)
	}
	rs := r.cont.rs
	n := rs.n
	for j := 0; j < n; j++ {
		unf := r.comp[j] < 0
		rs.unfinished[j] = unf
		rs.mass[j] = r.mass[j]
		rs.fail[j] = 0
		left := 0
		for _, pr := range c.in.Prec.Preds(j) {
			if r.comp[pr] < 0 {
				left++
			}
		}
		rs.predsLeft[j] = left
		rs.eligible[j] = unf && left == 0
	}
	rs.remaining = unfinished
	makespan, completed := rs.runFrom(c.o, c.prefixLen, maxSteps, rng)
	copy(r.mass, rs.mass)
	return makespan, completed
}

func (r *oblivRunner) massView() []float64 { return r.mass }
