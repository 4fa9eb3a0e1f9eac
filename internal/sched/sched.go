package sched

import (
	"fmt"
	"iter"
	"math/bits"
	"slices"
	"sync"

	"suu/internal/model"
)

// Idle marks a machine with no job in an Assignment.
const Idle = -1

// Assignment maps each machine index to a job index, or Idle.
type Assignment []int

// Clone returns a copy of the assignment.
func (a Assignment) Clone() Assignment {
	c := make(Assignment, len(a))
	copy(c, a)
	return c
}

// NewIdle returns an all-idle assignment over m machines.
func NewIdle(m int) Assignment {
	a := make(Assignment, m)
	for i := range a {
		a[i] = Idle
	}
	return a
}

// State is the scheduling state visible to a Policy at one step.
type State struct {
	// Unfinished[j] reports whether job j has not yet completed.
	Unfinished []bool
	// Eligible[j] reports whether j has arrived, is unfinished, and
	// all its predecessors have completed.
	Eligible []bool
	// Step is the 0-based index of the step about to execute.
	Step int

	// The fields below carry a dynamic scenario's availability (see
	// internal/dyn). They are nil or false on the static problem, where
	// every job is present from the start and every machine is up; the
	// hidden regime is never visible.

	// Arrived[j] reports whether job j's release step has passed.
	Arrived []bool
	// Up[i] reports whether machine i is outside every outage.
	Up []bool
	// Epoch marks steps at which the availability changed (arrivals
	// landed, an outage boundary passed). Step 0 of a dynamic walk
	// always is one.
	Epoch bool
}

// Policy produces one step's assignment from the current state. It is
// the general notion of schedule from Definition 2.1: adaptive
// policies read Unfinished/Eligible (and, under dynamics, Up and
// Epoch), oblivious ones only Step.
type Policy interface {
	Assign(st *State) Assignment
}

// PolicyFunc adapts a function to the Policy interface.
type PolicyFunc func(st *State) Assignment

// Assign implements Policy.
func (f PolicyFunc) Assign(st *State) Assignment { return f(st) }

// OutcomeObserver is an optional extension of Policy: after executing
// a step, the simulator reports the assignment that was played and
// which jobs completed in that step. Learning policies (the §5
// "online" extension) use this for exact credit assignment; pure
// policies simply don't implement it.
type OutcomeObserver interface {
	Observe(played Assignment, completed []bool)
}

// Memoizable marks stationary policies (Definition 2.2): Assign must
// be a pure function of the unfinished set — the same
// Unfinished/Eligible always yields the same assignment, independent
// of Step, call order, or any prior call. The simulation engine
// memoizes such policies per state (one assignment digest per
// unfinished-set key a repetition reaches) and runs repetitions as
// walks over the memo that are bit-identical to the generic step
// engine; see sim's compiled adaptive engine. A
// policy must not implement both Memoizable and OutcomeObserver —
// observation feedback is execution history, which a stationary
// assignment by definition cannot depend on.
type Memoizable interface {
	Policy
	// Memoizable is a marker; implementations do nothing.
	Memoizable()
}

// Tail generates assignments for steps beyond an oblivious prefix.
type Tail interface {
	// TailAssign returns the assignment for the k-th step after the
	// prefix (k >= 0).
	TailAssign(k int) Assignment
}

// Oblivious is an oblivious schedule: a finite prefix of assignments
// followed by an optional infinite tail. A nil Tail repeats the prefix
// forever (the Σ_o^∞ construction of Theorem 3.6); an empty prefix
// with nil tail is invalid for execution.
//
// The prefix is kept as runs. A run is a maximal block of consecutive
// steps with equal assignments, stored once with the step it ends
// at. Replicate makes runs of at least σ steps, and the packed
// constructions often repeat a step as well, so replication and
// concatenation cost O(runs), not O(steps). Build a
// schedule with NewOblivious; the zero value has an empty prefix. A
// schedule shares its assignments with the code that built it and
// with the schedules derived from it, so they must not be modified.
type Oblivious struct {
	M    int
	Tail Tail

	// runs[k] is played on steps [ends[k-1], ends[k]), where ends[-1]
	// is 0. Adjacent runs differ in content and every run has a step.
	runs []Assignment
	ends []int
	// index narrows At's search over ends to one bucket of 1<<shift
	// steps, the mean run length rounded down to a power of two:
	// index[b] is the run that plays the first step of bucket b, and
	// the last entry is the last run. A bucket holds about one run end,
	// so At searches a run or two, not all of them: the step engine
	// calls it on every step it walks.
	index []int32
	shift uint
}

// NewOblivious returns the schedule on m machines that plays steps as
// its prefix and then tail. Consecutive steps with equal contents
// merge into one run, which keeps the first of them.
func NewOblivious(m int, steps []Assignment, tail Tail) *Oblivious {
	o := &Oblivious{M: m, Tail: tail}
	for _, a := range steps {
		o.push(a, 1)
	}
	o.reindex()
	return o
}

// NewObliviousRuns returns the schedule on m machines that plays
// runs[k] for counts[k] steps, in order, as its prefix and then tail.
// Neighbours with equal contents merge into one run, which keeps the
// first of them, as NewOblivious merges steps; a run of no steps is
// dropped. It panics when the slices differ in length or a count is
// negative.
func NewObliviousRuns(m int, runs []Assignment, counts []int, tail Tail) *Oblivious {
	if len(runs) != len(counts) {
		panic("sched: run and count slices differ in length")
	}
	o := &Oblivious{M: m, Tail: tail, runs: make([]Assignment, 0, len(runs)), ends: make([]int, 0, len(runs))}
	for k, a := range runs {
		switch c := counts[k]; {
		case c < 0:
			panic("sched: negative run length")
		case c > 0:
			o.push(a, c)
		}
	}
	o.reindex()
	return o
}

// push appends count steps of a to the prefix, extending the last run
// when a has its contents.
func (o *Oblivious) push(a Assignment, count int) {
	end := o.Len() + count
	if k := len(o.runs) - 1; k >= 0 && slices.Equal(o.runs[k], a) {
		o.ends[k] = end
		return
	}
	o.runs = append(o.runs, a)
	o.ends = append(o.ends, end)
}

// Len returns the prefix length.
func (o *Oblivious) Len() int {
	if len(o.ends) == 0 {
		return 0
	}
	return o.ends[len(o.ends)-1]
}

// reindex builds index once the runs are final. There are fewer than
// two buckets per run, so it costs O(runs).
func (o *Oblivious) reindex() {
	r := len(o.runs)
	if r == 0 {
		o.index = nil
		return
	}
	l := o.Len()
	o.shift = uint(bits.Len(uint(l/r)) - 1)
	buckets := (l-1)>>o.shift + 1
	o.index = make([]int32, buckets+1)
	k := 0
	for b := range buckets {
		for o.ends[k] <= b<<o.shift {
			k++
		}
		o.index[b] = int32(k)
	}
	o.index[buckets] = int32(r - 1)
}

// run returns the index of the run that plays prefix step t: the
// first run that ends after t, found by binary search between the
// runs index gives for t's bucket and for the next one.
func (o *Oblivious) run(t int) int {
	b := t >> o.shift
	lo, hi := int(o.index[b]), int(o.index[b+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if o.ends[mid] <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// At returns the assignment of step t (0-based), consulting the tail
// or cycling the prefix beyond the prefix length.
func (o *Oblivious) At(t int) Assignment {
	if l := o.Len(); t >= l {
		if o.Tail != nil {
			return o.Tail.TailAssign(t - l)
		}
		if l == 0 {
			panic("sched: empty oblivious schedule with no tail")
		}
		t %= l
	}
	return o.runs[o.run(t)]
}

// Assign implements Policy; oblivious schedules ignore the job state.
func (o *Oblivious) Assign(st *State) Assignment { return o.At(st.Step) }

// RunEnd returns the first step after t whose assignment may differ
// from step t's. Inside the prefix that is the end of t's run: the
// first later step with different contents, or Len. A tail may change
// its assignment every step, so past a tailed prefix it is t+1; a
// cycled prefix wraps, so its runs repeat with it.
func (o *Oblivious) RunEnd(t int) int {
	l := o.Len()
	switch {
	case t < l:
		return o.ends[o.run(t)]
	case o.Tail != nil:
		return t + 1
	case l == 0:
		panic("sched: empty oblivious schedule with no tail")
	default:
		return t - t%l + o.ends[o.run(t%l)]
	}
}

// Runs returns the prefix as its runs: runs[k] is played on steps
// [ends[k-1], ends[k]), where ends[-1] is 0, and adjacent runs differ
// in content. Both slices belong to the schedule and must not be
// modified.
func (o *Oblivious) Runs() (runs []Assignment, ends []int) { return o.runs, o.ends }

// Steps iterates over the prefix one step at a time, yielding each
// step's index and assignment. It allocates nothing; the assignments
// are the schedule's own.
func (o *Oblivious) Steps() iter.Seq2[int, Assignment] {
	return func(yield func(int, Assignment) bool) {
		t := 0
		for k, a := range o.runs {
			for ; t < o.ends[k]; t++ {
				if !yield(t, a) {
					return
				}
			}
		}
	}
}

// Validate checks structural feasibility: every step assigns each of
// the M machines to a job in [0,n) or Idle, and a round-robin tail
// spans the M machines and cycles over jobs in [0,n). It reads each
// run once.
func (o *Oblivious) Validate(n int) error {
	start := 0
	for k, a := range o.runs {
		if len(a) != o.M {
			return fmt.Errorf("sched: step %d has %d machines, want %d", start, len(a), o.M)
		}
		for i, j := range a {
			if j != Idle && (j < 0 || j >= n) {
				return fmt.Errorf("sched: step %d machine %d assigned to invalid job %d", start, i, j)
			}
		}
		start = o.ends[k]
	}
	if rr, ok := o.Tail.(*TopoRoundRobin); ok {
		if rr.M != o.M {
			return fmt.Errorf("sched: tail has %d machines, want %d", rr.M, o.M)
		}
		for k, j := range rr.Order {
			if j < 0 || j >= n {
				return fmt.Errorf("sched: tail position %d names invalid job %d", k, j)
			}
		}
	}
	return nil
}

// Concat returns a new schedule running the parts' prefixes in order;
// the tail is taken from the last part. It copies runs, not steps, and
// merges the runs that meet at a boundary with equal contents. It
// needs at least one part, and every part must have the same machine
// count.
func Concat(parts ...*Oblivious) *Oblivious {
	runs := 0
	for _, p := range parts {
		if p.M != parts[0].M {
			panic("sched: concat of schedules with different machine counts")
		}
		runs += len(p.runs)
	}
	last := parts[len(parts)-1]
	out := &Oblivious{M: last.M, Tail: last.Tail, runs: make([]Assignment, 0, runs), ends: make([]int, 0, runs)}
	for _, p := range parts {
		start := 0
		for k, a := range p.runs {
			out.push(a, p.ends[k]-start)
			start = p.ends[k]
		}
	}
	out.reindex()
	return out
}

// Replicate repeats every prefix step sigma times (the schedule
// replication step of Section 4.1): step τ of the result equals step
// ⌊τ/sigma⌋ of the input prefix. It multiplies run lengths, sharing
// the runs' assignments with o, so its cost does not depend on sigma.
// The tail is preserved.
func (o *Oblivious) Replicate(sigma int) *Oblivious {
	if sigma < 1 {
		panic("sched: replication factor must be >= 1")
	}
	ends := make([]int, len(o.ends))
	for k, e := range o.ends {
		ends[k] = e * sigma
	}
	out := &Oblivious{M: o.M, Tail: o.Tail, runs: o.runs, ends: ends}
	out.reindex()
	return out
}

// TopoRoundRobin is the Σ_o,3 tail: at tail step k every machine is
// assigned to job Order[k mod n]. Combined with an eligibility check
// in the executor this completes every job eventually with probability
// one, bounding the expected makespan of the composed schedule.
type TopoRoundRobin struct {
	M     int
	Order []int

	// cache holds the all-machines-on-Order[k] assignment per order
	// position, built once so tail steps allocate nothing. Guarded by
	// once for concurrent simulation workers.
	once  sync.Once
	cache []Assignment
}

// TailAssign implements Tail. The returned assignment is shared and
// must not be modified.
func (rr *TopoRoundRobin) TailAssign(k int) Assignment {
	rr.once.Do(func() {
		rr.cache = make([]Assignment, len(rr.Order))
		for pos, j := range rr.Order {
			a := make(Assignment, rr.M)
			for i := range a {
				a[i] = j
			}
			rr.cache[pos] = a
		}
	})
	return rr.cache[k%len(rr.cache)]
}

// Regimen is a stationary policy: the assignment depends only on the
// set of unfinished jobs (Definition 2.2). Supports n <= 64 jobs via
// bitmask keys; missing states fall back to all-idle (which the
// simulator treats as a stuck schedule).
type Regimen struct {
	M int
	N int
	// F maps the bitmask of unfinished jobs to that state's assignment.
	F map[uint64]Assignment

	// idle is the shared all-idle fallback for missing states, built
	// once so lookup misses allocate nothing.
	idleOnce sync.Once
	idle     Assignment
}

// NewRegimen returns an empty regimen for n jobs and m machines.
func NewRegimen(n, m int) *Regimen {
	if n > 64 {
		panic("sched: regimen supports at most 64 jobs")
	}
	return &Regimen{M: m, N: n, F: make(map[uint64]Assignment)}
}

// Key packs an unfinished mask from a boolean slice.
func Key(unfinished []bool) uint64 {
	var k uint64
	for j, u := range unfinished {
		if u {
			k |= 1 << uint(j)
		}
	}
	return k
}

// Assign implements Policy. The assignment returned for a missing
// state is shared and must not be modified.
func (r *Regimen) Assign(st *State) Assignment {
	if a, ok := r.F[Key(st.Unfinished)]; ok {
		return a
	}
	r.idleOnce.Do(func() { r.idle = NewIdle(r.M) })
	return r.idle
}

// Memoizable marks the regimen stationary: its assignment is keyed on
// the unfinished mask alone, which is Definition 2.2 verbatim. Callers
// must not mutate F while simulations run.
func (r *Regimen) Memoizable() {}

// MassPerJob returns, for each job, the total (uncapped) mass
// accumulated over the prefix of the oblivious schedule: Σ_t p[i][j]
// over assignments f_t(i) = j. This is the quantity the constructions
// of Sections 3 and 4 certify lower bounds on.
func MassPerJob(in *model.Instance, o *Oblivious) []float64 {
	mass := make([]float64, in.N)
	for _, a := range o.Steps() {
		for i, j := range a {
			if j != Idle {
				mass[j] += in.P[i][j]
			}
		}
	}
	return mass
}

// CheckMassWindows verifies condition (ii) of AccuMass-C on an
// oblivious prefix: whenever j1 ≺ j2 (direct precedence edge), no
// machine may be assigned to j2 at a step before j1 has accumulated
// mass >= target. Returns the first violation found.
func CheckMassWindows(in *model.Instance, o *Oblivious, target float64) error {
	running := make([]float64, in.N)
	reachedAt := make([]int, in.N)
	for j := range reachedAt {
		reachedAt[j] = -1
	}
	firstAssigned := make([]int, in.N)
	for j := range firstAssigned {
		firstAssigned[j] = -1
	}
	for t, a := range o.Steps() {
		for i, j := range a {
			if j == Idle {
				continue
			}
			if firstAssigned[j] == -1 {
				firstAssigned[j] = t
			}
			running[j] += in.P[i][j]
			if running[j] >= target-1e-9 && reachedAt[j] == -1 {
				reachedAt[j] = t
			}
		}
	}
	for j2 := 0; j2 < in.N; j2++ {
		if firstAssigned[j2] == -1 {
			continue
		}
		for _, j1 := range in.Prec.Preds(j2) {
			if reachedAt[j1] == -1 || reachedAt[j1] >= firstAssigned[j2] {
				return fmt.Errorf("sched: job %d assigned at step %d before predecessor %d reached mass %.3f",
					j2, firstAssigned[j2], j1, target)
			}
		}
	}
	return nil
}
