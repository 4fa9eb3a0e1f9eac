package dyn

import (
	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/sim"
)

// State is the scheduling state a dynamic-walk strategy sees at one
// step. It extends sched.State with the scenario's availability
// picture; the hidden regime is deliberately absent.
type State struct {
	// Unfinished[j] reports whether job j has not yet completed.
	Unfinished []bool
	// Eligible[j] reports whether j has arrived, is unfinished, and
	// every predecessor has completed.
	Eligible []bool
	// Arrived[j] reports whether j's release step has passed.
	Arrived []bool
	// Up[i] reports whether machine i is outside every outage.
	Up []bool
	// Step is the 0-based index of the step about to execute.
	Step int
	// Epoch marks steps at which the timeline changed (arrivals
	// landed, an outage boundary passed). Step 0 is always an epoch.
	// The rolling strategy re-solves exactly at epochs.
	Epoch bool
}

// Walker executes one strategy's decisions along a trajectory. A
// walker is owned by a single worker goroutine; Reset is called
// before every repetition.
type Walker interface {
	Reset()
	Assign(st *State) sched.Assignment
}

// runWalker is the capability the walk jumps on: a walker whose
// assignments come in runs of identical steps reports where each run
// ends.
type runWalker interface {
	// runEnd returns the first step after t whose assignment may
	// differ from step t's.
	runEnd(t int) int
}

// walkState is the dynamic analogue of sim's runState: every buffer
// one trajectory needs, allocated once per worker. A step that trials
// something draws exactly as the static generic engine does — one
// uniform per touched job in machine-scan order — so a scenario whose
// events never fire produces bit-identical completion draws to it.
// Regimes draw from a separate stream, so adding a regime never shifts
// the completion randomness, and they draw per sojourn, not per step:
// each regime machine holds the index of the transition that next
// flips it, where transition t opens step t. A step that trials
// nothing draws no completion uniform, so when the walker reports runs
// the walk jumps over the steps after it that would trial nothing too;
// the flips that fall inside the jump are applied in the order a
// step-by-step walk applies them.
type walkState struct {
	in   *model.Instance
	tl   *timeline
	p    []float64
	n, m int

	unfinished []bool
	eligible   []bool
	arrived    []bool
	up         []bool
	predsLeft  []int
	fail       []float64
	seen       []bool
	touched    []int
	remaining  int
	evt        int

	// bad is indexed by machine. flip[k] is the transition index of
	// the next flip of tl.regs[k], and due the smallest of them.
	bad  []bool
	flip []int
	due  int

	st State
}

func newWalkState(in *model.Instance, tl *timeline) *walkState {
	ws := &walkState{
		in:         in,
		tl:         tl,
		p:          in.Flat(),
		n:          in.N,
		m:          in.M,
		unfinished: make([]bool, in.N),
		eligible:   make([]bool, in.N),
		arrived:    make([]bool, in.N),
		up:         make([]bool, in.M),
		predsLeft:  make([]int, in.N),
		fail:       make([]float64, in.N),
		seen:       make([]bool, in.N),
		touched:    make([]int, 0, in.M),
		bad:        make([]bool, in.M),
		flip:       make([]int, len(tl.regs)),
	}
	ws.st = State{
		Unfinished: ws.unfinished,
		Eligible:   ws.eligible,
		Arrived:    ws.arrived,
		Up:         ws.up,
	}
	return ws
}

// reset restores the step-0 state: all jobs unfinished, jobs with
// release 0 arrived, machines up unless an outage starts at 0, all
// regimes good. Each regime machine draws its first good sojourn G
// from reg, in machine order, and first flips at transition G−1, so
// the transition before step 0 can flip it already.
func (ws *walkState) reset(reg *sim.Stream) {
	for j := 0; j < ws.n; j++ {
		ws.unfinished[j] = true
		ws.predsLeft[j] = ws.in.Prec.InDeg(j)
		ws.arrived[j] = ws.tl.arrive[j] == 0
		ws.eligible[j] = ws.arrived[j] && ws.predsLeft[j] == 0
		ws.fail[j] = 0
	}
	for i := 0; i < ws.m; i++ {
		ws.up[i] = !ws.tl.downAt(i, 0)
		ws.bad[i] = false
	}
	ws.remaining = ws.n
	ws.evt = 0
	ws.due = never
	for k := range ws.tl.regs {
		f := ws.tl.regs[k].stay[0].draw(reg)
		if f != never {
			f--
		}
		ws.flip[k] = f
		ws.due = min(ws.due, f)
	}
}

// run executes one trajectory of walker w for at most maxSteps steps.
// rng feeds completion draws, reg the regime sojourns. It returns
// the makespan (1-based step index of the last completion, or
// maxSteps at the cap) and whether every job finished.
func (ws *walkState) run(w Walker, maxSteps int, rng, reg *sim.Stream) (int, bool) {
	ws.reset(reg)
	w.Reset()
	runs, _ := w.(runWalker)
	n, m, p := ws.n, ws.m, ws.p
	for t := 0; t < maxSteps && ws.remaining > 0; t++ {
		epoch := t == 0
		for ws.evt < len(ws.tl.events) && ws.tl.events[ws.evt] == t {
			epoch = true
			ws.evt++
		}
		if epoch && t > 0 {
			for j := 0; j < n; j++ {
				if ws.tl.arrive[j] == t {
					ws.arrived[j] = true
					if ws.unfinished[j] && ws.predsLeft[j] == 0 {
						ws.eligible[j] = true
					}
				}
			}
			for i := 0; i < m; i++ {
				ws.up[i] = !ws.tl.downAt(i, t)
			}
		}
		ws.advanceRegimes(reg, t+1)
		ws.st.Step = t
		ws.st.Epoch = epoch
		a := w.Assign(&ws.st)
		ws.touched = ws.touched[:0]
		for i := 0; i < m; i++ {
			if !ws.up[i] {
				continue
			}
			j := a[i]
			if j == sched.Idle || j < 0 || j >= n || !ws.eligible[j] {
				continue
			}
			if !ws.seen[j] {
				ws.seen[j] = true
				ws.fail[j] = 1
				ws.touched = append(ws.touched, j)
			}
			pv := p[i*n+j]
			if ws.bad[i] {
				pv *= ws.tl.reg[i].Severity
			}
			ws.fail[j] *= 1 - pv
		}
		for _, j := range ws.touched {
			if rng.Float64() < 1-ws.fail[j] {
				ws.unfinished[j] = false
				ws.eligible[j] = false
				ws.remaining--
				for _, sj := range ws.in.Prec.Succs(j) {
					ws.predsLeft[sj]--
					if ws.predsLeft[sj] == 0 && ws.unfinished[sj] && ws.arrived[sj] {
						ws.eligible[sj] = true
					}
				}
			}
			ws.fail[j] = 0
			ws.seen[j] = false
		}
		if ws.remaining == 0 {
			return t + 1, true
		}
		if len(ws.touched) == 0 && runs != nil {
			// Until the run ends, no event fires and no job completes,
			// so every step before next assigns what step t did to the
			// same eligible jobs and up machines: it trials nothing, and
			// no draw inside the jump reads the regime. Applying the
			// jump's flips here keeps the regime stream where a
			// step-by-step walk leaves it when next is the step cap.
			next := min(runs.runEnd(t), maxSteps)
			if ws.evt < len(ws.tl.events) {
				next = min(next, ws.tl.events[ws.evt])
			}
			ws.advanceRegimes(reg, next)
			t = next - 1
		}
	}
	return maxSteps, ws.remaining == 0
}

// advanceRegimes applies every regime flip whose transition index is
// below end, in index order and in machine order within an index,
// drawing each flipped machine's next sojourn from its new state's
// exit probability as it goes. The order makes one call up to end draw
// exactly what one call per transition index draws, so a trajectory's
// regime draws do not depend on how the walk batches its steps; a call
// with no flip due returns at once.
func (ws *walkState) advanceRegimes(reg *sim.Stream, end int) {
	if ws.due >= end {
		return
	}
	regs, flip := ws.tl.regs, ws.flip
	for {
		k, at := 0, flip[0]
		for i := 1; i < len(flip); i++ {
			if f := flip[i]; f < at {
				k, at = i, f
			}
		}
		if at >= end {
			ws.due = at
			return
		}
		r := &regs[k]
		bad := !ws.bad[r.machine]
		ws.bad[r.machine] = bad
		s := 0
		if bad {
			s = 1
		}
		flip[k] = never
		if g := r.stay[s].draw(reg); g < never-at {
			flip[k] = at + g
		}
	}
}
