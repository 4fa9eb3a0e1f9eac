package sim

import (
	"math"
	"sort"
)

// Outage takes a machine down for the half-open step interval
// [From, To): assignments to it during the interval are ignored (the
// machine idles).
type Outage struct {
	Machine, From, To int
}

// Regime is a hidden two-state (good/bad) Markov chain on one
// machine. Each step the machine transitions (good→bad with
// probability GoodToBad, bad→good with BadToGood) and, while bad,
// every p_ij on the machine is scaled by Severity. The state is
// hidden: policies see the static probabilities, only the completion
// draws feel the modulation.
type Regime struct {
	// Machine the regime rides on; -1 applies it to every machine.
	Machine int
	// GoodToBad and BadToGood are the per-step transition
	// probabilities.
	GoodToBad, BadToGood float64
	// Severity multiplies p_ij while the machine is bad (0 = total
	// failure burst, 1 = no effect).
	Severity float64
}

// Timeline is the compiled event timeline of a dynamic scenario: when
// each job arrives, when each machine is down, and the hidden regimes
// that scale p_ij while a machine is bad. The step engine follows it
// when a runner is built with NewTimelineRunner; every runner of an
// estimation call shares one read-only.
type Timeline struct {
	// Arrive[j] is job j's release step: before it the job is
	// invisible to policies and ineligible.
	Arrive []int
	// Events lists the steps after 0 at which arrivals land or an
	// outage boundary passes, sorted and deduplicated. Step 0's state
	// is set when a walk starts.
	Events []int
	// Regimes holds the regime of each machine that carries one, with
	// Machine set, in machine order: the order in which flips due at
	// one transition apply.
	Regimes []Regime

	downs [][]Outage
	// severity[i] scales machine i's probabilities while it is bad.
	severity []float64
	// stay[k][0] draws how long Regimes[k]'s machine stays good,
	// stay[k][1] how long it stays bad.
	stay [][2]sojourn
}

// NewTimeline compiles the events of a scenario on m machines: job j
// arrives at step arrive[j], each outage takes its machine down, and
// each regime rides its machine, where Machine -1 means every machine
// and a later regime replaces an earlier one on the same machine. The
// events must be valid; NewTimeline does not check them.
func NewTimeline(m int, arrive []int, outages []Outage, regimes []Regime) *Timeline {
	tl := &Timeline{Arrive: arrive, downs: make([][]Outage, m), severity: make([]float64, m)}
	set := map[int]bool{}
	for _, at := range arrive {
		if at > 0 {
			set[at] = true
		}
	}
	for _, o := range outages {
		tl.downs[o.Machine] = append(tl.downs[o.Machine], o)
		if o.From > 0 {
			set[o.From] = true
		}
		set[o.To] = true
	}
	for t := range set {
		tl.Events = append(tl.Events, t)
	}
	sort.Ints(tl.Events)
	on := make([]*Regime, m)
	for k := range regimes {
		if r := &regimes[k]; r.Machine < 0 {
			for i := range on {
				on[i] = r
			}
		} else {
			on[r.Machine] = r
		}
	}
	for i, r := range on {
		if r != nil {
			reg := *r
			reg.Machine = i
			tl.Regimes = append(tl.Regimes, reg)
			tl.severity[i] = r.Severity
			tl.stay = append(tl.stay, [2]sojourn{newSojourn(r.GoodToBad), newSojourn(r.BadToGood)})
		}
	}
	return tl
}

// Down reports whether machine i is inside an outage at step t.
// Machines carry at most a handful of intervals, so a linear scan at
// event epochs beats materializing per-step availability.
func (tl *Timeline) Down(i, t int) bool {
	for _, o := range tl.downs[i] {
		if o.From <= t && t < o.To {
			return true
		}
	}
	return false
}

// never is the flip index of a machine that stays in its state
// forever; every transition index is below it.
const never = math.MaxInt

// sojourn draws how many transitions a two-state chain spends in one
// state: the transitions up to and including the one that leaves it,
// a Geometric(q) variable on {1, 2, …} for exit probability q. One
// uniform and one logarithm replace the q-coin a per-step walk would
// flip at every transition: P(G > g) = (1−q)^g.
type sojourn struct {
	q float64
	// inv is 1/log1p(−q), so G = 1 + ⌊log(1−U)·inv⌋.
	inv float64
}

func newSojourn(q float64) sojourn { return sojourn{q: q, inv: 1 / math.Log1p(-q)} }

// draw returns the sojourn length; never, without a draw, when q is
// 0. The product log(1−U)·inv is never negative, so truncation is the
// floor; at q = 1, inv is −0 and every draw is 1.
func (s sojourn) draw(reg *Stream) int {
	if s.q <= 0 {
		return never
	}
	g := math.Log(1-reg.Float64()) * s.inv
	if g >= 1<<62 {
		return never
	}
	return 1 + int(g)
}

// resetTimeline restores a timeline walk's step-0 state on top of
// reset's: jobs with release 0 arrived, machines up unless an outage
// starts at 0, all regimes good. Each regime machine draws its first
// good sojourn G from reg, in machine order, and first flips at
// transition G−1, so the transition before step 0 can flip it already.
func (rs *runState) resetTimeline(reg *Stream) {
	tl := rs.tl
	for j := 0; j < rs.n; j++ {
		rs.arrived[j] = tl.Arrive[j] == 0
		rs.eligible[j] = rs.eligible[j] && rs.arrived[j]
	}
	for i := 0; i < rs.m; i++ {
		rs.up[i] = !tl.Down(i, 0)
		rs.bad[i] = false
	}
	rs.evt = 0
	rs.due = never
	for k := range tl.stay {
		f := tl.stay[k][0].draw(reg)
		if f != never {
			f--
		}
		rs.flip[k] = f
		rs.due = min(rs.due, f)
	}
}

// advance opens step t of a timeline walk and reports whether t is an
// epoch: step 0, or a step with events. At an epoch after step 0 it
// lands the step's arrivals and refreshes the up machines. Then it
// applies transition t's regime flips.
func (rs *runState) advance(t int, reg *Stream) bool {
	tl := rs.tl
	epoch := t == 0
	for rs.evt < len(tl.Events) && tl.Events[rs.evt] == t {
		epoch = true
		rs.evt++
	}
	if epoch && t > 0 {
		for j := 0; j < rs.n; j++ {
			if tl.Arrive[j] == t {
				rs.arrived[j] = true
				if rs.unfinished[j] && rs.predsLeft[j] == 0 {
					rs.eligible[j] = true
				}
			}
		}
		for i := 0; i < rs.m; i++ {
			rs.up[i] = !tl.Down(i, t)
		}
	}
	rs.advanceRegimes(reg, t+1)
	return epoch
}

// jump returns the step a walk resumes at after step t trialed no job
// under an oblivious schedule: the end of t's run, which the schedule
// stores (sched.Oblivious.RunEnd), or the next event or the step cap
// if sooner. Until then no event fires and no job completes, so every
// step assigns what step t did to the same eligible jobs and up
// machines: it trials nothing, and no draw inside the jump reads the
// regime. Applying the jump's flips here keeps the regime stream where
// a step-by-step walk leaves it when the jump ends at the step cap.
func (rs *runState) jump(t, maxSteps int, reg *Stream) int {
	next := min(rs.obl.RunEnd(t), maxSteps)
	if tl := rs.tl; tl != nil {
		if rs.evt < len(tl.Events) {
			next = min(next, tl.Events[rs.evt])
		}
		rs.advanceRegimes(reg, next)
	}
	return next
}

// advanceRegimes applies every regime flip whose transition index is
// below end, in index order and in machine order within an index,
// drawing each flipped machine's next sojourn from its new state's
// exit probability as it goes. The order makes one call up to end draw
// exactly what one call per transition index draws, so a walk's regime
// draws do not depend on how it batches its steps; a call with no flip
// due returns at once.
func (rs *runState) advanceRegimes(reg *Stream, end int) {
	if rs.due >= end {
		return
	}
	regs, stay, flip := rs.tl.Regimes, rs.tl.stay, rs.flip
	for {
		k, at := 0, flip[0]
		for i := 1; i < len(flip); i++ {
			if f := flip[i]; f < at {
				k, at = i, f
			}
		}
		if at >= end {
			rs.due = at
			return
		}
		i := regs[k].Machine
		bad := !rs.bad[i]
		rs.bad[i] = bad
		s := 0
		if bad {
			s = 1
		}
		flip[k] = never
		if g := stay[k][s].draw(reg); g < never-at {
			flip[k] = at + g
		}
	}
}
