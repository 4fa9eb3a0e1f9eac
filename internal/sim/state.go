package sim

import (
	"suu/internal/model"
	"suu/internal/sched"
)

// runState holds every buffer one simulation needs, allocated once
// and reset per repetition, so the step loop itself performs zero
// allocations. Each estimation worker on the step engine owns one.
type runState struct {
	in   *model.Instance
	p    []float64 // flat row-major probabilities: p[i*n+j]
	n, m int

	unfinished []bool
	eligible   []bool
	predsLeft  []int
	mass       []float64
	fail       []float64
	// seen marks jobs already appended to touched this step (cleared
	// alongside fail in the draw loop). A separate marker, not
	// fail[j]==0: a p_ij of exactly 1 drives the fail product to zero
	// and must not re-enroll the job.
	seen      []bool
	touched   []int
	remaining int

	st sched.State

	// Observer support, allocated only when the policy observes.
	observer  sched.OutcomeObserver
	completed []bool
	effective sched.Assignment

	// Timeline support, allocated only when the walk follows one. bad
	// is indexed by machine; flip[k] is the transition index of the next
	// flip of tl.Regimes[k], and due the smallest of them; evt indexes
	// the next of tl.Events.
	tl      *Timeline
	arrived []bool
	up      []bool
	bad     []bool
	flip    []int
	due     int
	evt     int

	// obl is the policy when it is an oblivious schedule with a prefix:
	// the walk jumps over the steps of a run that would trial nothing.
	obl *sched.Oblivious
}

func newRunState(in *model.Instance, pol sched.Policy, tl *Timeline) *runState {
	rs := &runState{
		in:         in,
		p:          in.Flat(),
		n:          in.N,
		m:          in.M,
		unfinished: make([]bool, in.N),
		eligible:   make([]bool, in.N),
		predsLeft:  make([]int, in.N),
		mass:       make([]float64, in.N),
		fail:       make([]float64, in.N),
		seen:       make([]bool, in.N),
		touched:    make([]int, 0, in.M),
	}
	rs.st = sched.State{Unfinished: rs.unfinished, Eligible: rs.eligible}
	if obs, ok := pol.(sched.OutcomeObserver); ok {
		rs.observer = obs
		rs.completed = make([]bool, in.N)
		rs.effective = make(sched.Assignment, in.M)
	}
	if tl != nil {
		rs.tl = tl
		rs.arrived = make([]bool, in.N)
		rs.up = make([]bool, in.M)
		rs.bad = make([]bool, in.M)
		rs.flip = make([]int, len(tl.Regimes))
		rs.st.Arrived, rs.st.Up = rs.arrived, rs.up
	}
	if o, ok := pol.(*sched.Oblivious); ok && o.Len() > 0 {
		rs.obl = o
	}
	return rs
}

// reset restores the pristine state: every job unfinished, roots
// eligible, masses zero, and on a timeline its step-0 state, drawing
// the first regime sojourns from reg.
func (rs *runState) reset(reg *Stream) {
	for j := 0; j < rs.n; j++ {
		rs.unfinished[j] = true
		rs.predsLeft[j] = rs.in.Prec.InDeg(j)
		rs.eligible[j] = rs.predsLeft[j] == 0
		rs.mass[j] = 0
		rs.fail[j] = 0
	}
	rs.remaining = rs.n
	if rs.tl != nil {
		rs.resetTimeline(reg)
	}
}

// runFrom executes pol from step t0 (exclusive of any earlier steps;
// the caller has already seeded unfinished/eligible/predsLeft/mass/
// remaining) until the step cap or completion. It returns the
// makespan — the 1-based index of the step that completed the last
// job, or maxSteps when the cap was hit — and whether every job
// finished. Every up machine assigned an eligible job trials it, and
// the job completes with probability 1 − Π(1 − p), drawn as one
// uniform from rng per trialed job in machine-scan order. On a
// timeline, p is scaled by the severity of a machine that is bad, and
// reg feeds the regime sojourns; it draws from a stream of its own, so
// a regime never shifts the completion draws. The loop body allocates
// nothing; any allocation comes from the policy's Assign.
func (rs *runState) runFrom(pol sched.Policy, t0, maxSteps int, rng Rand, reg *Stream) (int, bool) {
	n, m, p := rs.n, rs.m, rs.p
	eligible, fail, mass := rs.eligible, rs.fail, rs.mass
	tl, arrived, up, bad := rs.tl, rs.arrived, rs.up, rs.bad
	for t := t0; t < maxSteps && rs.remaining > 0; t++ {
		if tl != nil {
			rs.st.Epoch = rs.advance(t, reg)
		}
		rs.st.Step = t
		a := pol.Assign(&rs.st)
		rs.touched = rs.touched[:0]
		if rs.observer != nil {
			for j := range rs.completed {
				rs.completed[j] = false
			}
			for i := range rs.effective {
				rs.effective[i] = sched.Idle
			}
		}
		for i := 0; i < m; i++ {
			j := a[i]
			if j == sched.Idle || j < 0 || j >= n || !eligible[j] || up != nil && !up[i] {
				continue
			}
			if rs.observer != nil {
				rs.effective[i] = j
			}
			if !rs.seen[j] {
				rs.seen[j] = true
				fail[j] = 1
				rs.touched = append(rs.touched, j)
			}
			pv := p[i*n+j]
			if bad != nil && bad[i] {
				pv *= tl.severity[i]
			}
			fail[j] *= 1 - pv
			mass[j] += pv
		}
		for _, j := range rs.touched {
			if rng.Float64() < 1-fail[j] {
				rs.unfinished[j] = false
				eligible[j] = false
				if rs.observer != nil {
					rs.completed[j] = true
				}
				rs.remaining--
				for _, s := range rs.in.Prec.Succs(j) {
					rs.predsLeft[s]--
					if rs.predsLeft[s] == 0 && rs.unfinished[s] && (arrived == nil || arrived[s]) {
						eligible[s] = true
					}
				}
			}
			fail[j] = 0
			rs.seen[j] = false
		}
		if rs.observer != nil {
			rs.observer.Observe(rs.effective, rs.completed)
		}
		if rs.remaining == 0 {
			return t + 1, true
		}
		if len(rs.touched) == 0 && rs.obl != nil {
			t = rs.jump(t, maxSteps, reg) - 1
		}
	}
	return maxSteps, rs.remaining == 0
}

// Runner executes many simulations of one policy on one instance,
// reusing every buffer across runs. It is the allocation-free core
// the estimators' step engine builds on; use it directly when driving
// repetitions with custom per-run logic.
//
// A Runner is not safe for concurrent use; give each goroutine its
// own.
type Runner struct {
	rs  *runState
	pol sched.Policy
}

// NewRunner returns a runner for pol on in.
func NewRunner(in *model.Instance, pol sched.Policy) *Runner {
	return &Runner{rs: newRunState(in, pol, nil), pol: pol}
}

// NewTimelineRunner returns a runner for pol on in whose simulations
// follow tl: jobs arrive, machines go down and regimes scale p_ij as
// tl says, and pol sees the arrived jobs, the up machines and the
// epochs in its sched.State.
func NewTimelineRunner(in *model.Instance, pol sched.Policy, tl *Timeline) *Runner {
	return &Runner{rs: newRunState(in, pol, tl), pol: pol}
}

// Run executes one simulation of at most maxSteps steps, returning
// the makespan and whether every job completed. The step loop
// performs zero heap allocations (given an allocation-free policy).
// A runner whose timeline carries regimes runs with RunTimeline.
func (r *Runner) Run(maxSteps int, rng Rand) (makespan int, completed bool) {
	return r.RunTimeline(maxSteps, rng, nil)
}

// RunTimeline is Run with reg feeding the timeline's regime sojourns;
// rng feeds the completion draws alone.
func (r *Runner) RunTimeline(maxSteps int, rng Rand, reg *Stream) (makespan int, completed bool) {
	r.rs.reset(reg)
	return r.rs.runFrom(r.pol, 0, maxSteps, rng, reg)
}

// Mass returns the per-job mass accumulated by the most recent Run.
// The slice is a view into the runner's buffer: valid until the next
// Run, and must not be modified.
func (r *Runner) Mass() []float64 { return r.rs.mass }
