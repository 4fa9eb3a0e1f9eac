package sched

import (
	"fmt"
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
	// Eligible[j] reports whether j is unfinished and all its
	// predecessors have completed.
	Eligible []bool
	// Step is the 0-based index of the step about to execute.
	Step int
}

// Policy produces one step's assignment from the current state. It is
// the general notion of schedule from Definition 2.1: adaptive
// policies read Unfinished/Eligible, oblivious ones only Step.
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
type Oblivious struct {
	M     int
	Steps []Assignment
	Tail  Tail
}

// Len returns the prefix length.
func (o *Oblivious) Len() int { return len(o.Steps) }

// At returns the assignment of step t (0-based), consulting the tail
// or cycling the prefix beyond the prefix length.
func (o *Oblivious) At(t int) Assignment {
	if t < len(o.Steps) {
		return o.Steps[t]
	}
	if o.Tail != nil {
		return o.Tail.TailAssign(t - len(o.Steps))
	}
	if len(o.Steps) == 0 {
		panic("sched: empty oblivious schedule with no tail")
	}
	return o.Steps[t%len(o.Steps)]
}

// Assign implements Policy; oblivious schedules ignore the job state.
func (o *Oblivious) Assign(st *State) Assignment { return o.At(st.Step) }

// Validate checks structural feasibility: every step assigns each of
// the M machines to a job in [0,n) or Idle.
func (o *Oblivious) Validate(n int) error {
	for t, a := range o.Steps {
		if len(a) != o.M {
			return fmt.Errorf("sched: step %d has %d machines, want %d", t, len(a), o.M)
		}
		for i, j := range a {
			if j != Idle && (j < 0 || j >= n) {
				return fmt.Errorf("sched: step %d machine %d assigned to invalid job %d", t, i, j)
			}
		}
	}
	return nil
}

// RunEnd returns the end of the prefix run starting at step t, for
// 0 <= t < Len: the first step after t whose assignment differs from
// step t's, or Len.
// A run is a maximal block of consecutive prefix steps with equal
// assignments; Replicate makes runs of at least sigma steps, and the
// packed constructions often repeat a step as well.
func (o *Oblivious) RunEnd(t int) int {
	a := o.Steps[t]
	for t++; t < len(o.Steps) && sameAssignment(a, o.Steps[t]); t++ {
	}
	return t
}

// sameAssignment reports whether a and b assign the same jobs. A
// shared backing array settles it without reading the machines:
// Replicate reuses one assignment across its sigma copies.
func sameAssignment(a, b Assignment) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) == 0 || &a[0] == &b[0] {
		return true
	}
	return slices.Equal(a, b)
}

// Concat returns a new schedule running the parts' prefixes in order,
// each copied once into a prefix of their total length; the tail is
// taken from the last part. It needs at least one part, and every part
// must have the same machine count.
func Concat(parts ...*Oblivious) *Oblivious {
	total := 0
	for _, p := range parts {
		if p.M != parts[0].M {
			panic("sched: concat of schedules with different machine counts")
		}
		total += len(p.Steps)
	}
	steps := make([]Assignment, 0, total)
	for _, p := range parts {
		steps = append(steps, p.Steps...)
	}
	last := parts[len(parts)-1]
	return &Oblivious{M: last.M, Steps: steps, Tail: last.Tail}
}

// Replicate repeats every prefix step sigma times (the schedule
// replication step of Section 4.1): step τ of the result equals step
// ⌊τ/sigma⌋ of the input prefix. The tail is preserved.
func (o *Oblivious) Replicate(sigma int) *Oblivious {
	if sigma < 1 {
		panic("sched: replication factor must be >= 1")
	}
	steps := make([]Assignment, 0, len(o.Steps)*sigma)
	for _, a := range o.Steps {
		for k := 0; k < sigma; k++ {
			steps = append(steps, a)
		}
	}
	return &Oblivious{M: o.M, Steps: steps, Tail: o.Tail}
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
func MassPerJob(in *model.Instance, steps []Assignment) []float64 {
	mass := make([]float64, in.N)
	for _, a := range steps {
		for i, j := range a {
			if j != Idle {
				mass[j] += in.P[i][j]
			}
		}
	}
	return mass
}

// MassBySteps returns the running per-job mass after each step:
// out[t][j] is j's mass accumulated in steps 0..t.
func MassBySteps(in *model.Instance, steps []Assignment) [][]float64 {
	out := make([][]float64, len(steps))
	cur := make([]float64, in.N)
	for t, a := range steps {
		for i, j := range a {
			if j != Idle {
				cur[j] += in.P[i][j]
			}
		}
		row := make([]float64, in.N)
		copy(row, cur)
		out[t] = row
	}
	return out
}

// CheckMassWindows verifies condition (ii) of AccuMass-C on an
// oblivious prefix: whenever j1 ≺ j2 (direct precedence edge), no
// machine may be assigned to j2 at a step before j1 has accumulated
// mass >= target. Returns the first violation found.
func CheckMassWindows(in *model.Instance, steps []Assignment, target float64) error {
	running := make([]float64, in.N)
	reachedAt := make([]int, in.N)
	for j := range reachedAt {
		reachedAt[j] = -1
	}
	firstAssigned := make([]int, in.N)
	for j := range firstAssigned {
		firstAssigned[j] = -1
	}
	for t, a := range steps {
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
