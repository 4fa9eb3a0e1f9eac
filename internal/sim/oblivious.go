package sim

import (
	"slices"

	"suu/internal/model"
	"suu/internal/sched"
)

// Oblivious schedules fix every assignment in advance, which lets the
// estimator precompile the prefix once per call and then replay it
// event-wise instead of step-wise. The paper's constructions replicate
// each assignment Θ(σ) times, so a run spends almost all wall-clock
// steps on jobs that are already finished or not yet eligible; the
// step engine still scans all m machines at each of them. The
// compiled engine instead stores, per job, the runs of the schedule
// that assign it — each with the combined success probability its
// steps share — and walks jobs in topological order: a job's
// eligibility step is determined by its predecessors' completion
// steps, and its own completion is sampled with exactly one uniform
// draw per (eligible, assigned) step, just like the step engine.
// Work per repetition is proportional to the number of completion
// trials actually performed, not to makespan × machines, and the
// tables hold one entry per (job, run), not one per replicated step.
//
// Repetitions that survive the prefix fall back to the generic step
// engine for the tail, seeded with the state the walk produced.
type compiledOblivious struct {
	in        *model.Instance
	o         *sched.Oblivious
	prefixLen int
	topo      []int32
	// Runs grouped by job: job j's are runs[offs[j]:offs[j+1]], in step
	// order. occurrences counts the (job, step) pairs they cover.
	offs        []int32
	runs        []jobRun
	occurrences int
}

// jobRun is one (job, schedule run) pair: the run assigns the job on
// every step of [start, end). succ is the combined single-step
// completion probability 1-Π(1-p_ij) over the machines the run assigns
// it. The occurrences — one per (job, assigned step) — are numbered
// job by job in step order, and base is the number of the run's first
// step, so step t's trial is occurrence base + t - start: the key the
// lane remap draws it under.
type jobRun struct {
	start, end, base int32
	succ             float64
}

// compileOblivious builds the per-job run tables of o, walking jobs
// in order, a topological order of in. It reads each run the schedule
// stores (sched.Oblivious.Runs) twice, once to count and once to fill,
// and writes one entry per job the run assigns, so the cost is
// O(runs × m) whatever σ is, paid once per Prepare and shared
// read-only by every worker. A run's fail product is the
// multiplications, over the same machines in the same order, that
// each of its steps would make. Every table is allocated at exactly
// the size it needs.
func compileOblivious(in *model.Instance, o *sched.Oblivious, order []int) *compiledOblivious {
	n := in.N
	c := &compiledOblivious{in: in, o: o, prefixLen: o.Len(),
		topo: make([]int32, n), offs: make([]int32, n+1)}
	for k, j := range order {
		c.topo[k] = int32(j)
	}
	// First pass: count each job's entries, one per run that assigns it,
	// into offs[j+1], then sum the counts into offsets.
	runs, ends := o.Runs()
	last := make([]int32, n) // run that last counted the job
	for j := range last {
		last[j] = -1
	}
	for k, a := range runs {
		for _, j := range a {
			if j == sched.Idle || j < 0 || j >= n || last[j] == int32(k) {
				continue
			}
			last[j] = int32(k)
			c.offs[j+1]++
		}
	}
	for j := 0; j < n; j++ {
		c.offs[j+1] += c.offs[j]
	}
	c.runs = make([]jobRun, c.offs[n])
	// Second pass: per run, accumulate each assigned job's fail product
	// over the machines, then write the job's entry.
	next := slices.Clone(c.offs[:n])
	for j := range last {
		last[j] = -1
	}
	fail := make([]float64, n)
	jobs := make([]int, 0, min(n, in.M))
	p := in.Flat()
	t := 0
	for k, a := range runs {
		jobs = jobs[:0]
		for i, j := range a {
			if j == sched.Idle || j < 0 || j >= n {
				continue
			}
			pv := p[i*n+j]
			if last[j] != int32(k) {
				last[j] = int32(k)
				jobs = append(jobs, j)
				fail[j] = 1 - pv
			} else {
				fail[j] *= 1 - pv
			}
		}
		for _, j := range jobs {
			c.runs[next[j]] = jobRun{start: int32(t), end: int32(ends[k]), succ: 1 - fail[j]}
			next[j]++
		}
		t = ends[k]
	}
	// Number the occurrences job by job, in step order.
	occ := int32(0)
	for e := range c.runs {
		c.runs[e].base = occ
		occ += c.runs[e].end - c.runs[e].start
	}
	c.occurrences = int(occ)
	return c
}

// reuse returns s resliced to length n, keeping its backing array when
// it is large enough. Entries it keeps are not cleared: the caller
// writes each one before reading it.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// oblivRunner is one worker's mutable state for the compiled engine.
type oblivRunner struct {
	c    *compiledOblivious
	comp []int32 // completion step per job, -1 while unfinished
	cont *Runner // lazily built generic engine for tail continuations
}

func (c *compiledOblivious) newRunner() *oblivRunner {
	return &oblivRunner{c: c, comp: make([]int32, c.in.N)}
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
// of by step, so the makespan distribution is identical.
func (r *oblivRunner) run(maxSteps int, rng Rand) (int, bool) {
	return oblivRun(r, maxSteps, seqDraw{rng: rng})
}

// oblivRun is the compiled walk over an arbitrary draw source. It
// steps through each of a job's runs from the job's eligibility step,
// one trial per step, keyed by the step's occurrence number.
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
			// Lower-bound search for the first run that ends after elig.
			l, h := lo, hi
			for l < h {
				mid := int(uint(l+h) >> 1)
				if c.runs[mid].end <= int32(elig) {
					l = mid + 1
				} else {
					h = mid
				}
			}
			lo = l
		}
		done := false
	walk:
		for e := lo; e < hi; e++ {
			run := &c.runs[e]
			start := max(int(run.start), elig)
			end := min(int(run.end), cap)
			k := int(run.base) + start - int(run.start)
			for t := start; t < end; t++ {
				if d.trial(k, run.succ) {
					r.comp[j] = int32(t)
					if t > maxComp {
						maxComp = t
					}
					done = true
					break walk
				}
				k++
			}
			if int(run.end) >= cap {
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
// to the cap. The step engine's mass is not read here, so it is not
// seeded.
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
	return rs.runFrom(c.o, c.prefixLen, maxSteps, rng, nil)
}
