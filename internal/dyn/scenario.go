package dyn

import (
	"fmt"
	"sort"

	"suu/internal/model"
)

// Arrival releases a job: before step At the job is invisible to
// policies (not eligible, not counted as a predecessor obstacle it
// could clear). At 0 the job is present from the start.
type Arrival struct {
	Job, At int
}

// Outage takes a machine down for the half-open step interval
// [From, To): assignments to it during the interval are ignored (the
// machine idles), and the rolling strategy plans around it.
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

// BurstRegime converts the mixture parameterization of two-regime
// error models — stationary bad fraction p0 and persistence alpha
// (the probability the chain stays in its current regime) — into the
// equivalent Markov transition rates: good→bad = (1−α)·p0,
// bad→good = (1−α)·(1−p0), whose stationary bad probability is
// exactly p0 and whose regime autocorrelation is α.
func BurstRegime(machine int, p0, alpha, severity float64) Regime {
	return Regime{
		Machine:   machine,
		GoodToBad: (1 - alpha) * p0,
		BadToGood: (1 - alpha) * (1 - p0),
		Severity:  severity,
	}
}

// Scenario is a static instance plus a deterministic event timeline.
// Build one with New and the chainable ArriveAt/Breakdown/Burst
// methods; estimation compiles the timeline on entry, so a scenario
// must not be mutated while an estimate runs.
type Scenario struct {
	In *model.Instance

	arrive  []int
	outages []Outage
	regimes []Regime
	err     error
}

// New returns a scenario over in with no events: every job present at
// step 0, every machine up forever, no regimes. Estimating it is
// bit-identical to the static pipeline.
func New(in *model.Instance) *Scenario {
	return &Scenario{In: in, arrive: make([]int, in.N)}
}

// seterr records the first builder error for Validate to report, so
// the chainable builder never needs per-call error returns.
func (s *Scenario) seterr(err error) {
	if s.err == nil {
		s.err = err
	}
}

// ArriveAt releases job at step (0 = present from the start).
func (s *Scenario) ArriveAt(job, step int) *Scenario {
	if job < 0 || job >= s.In.N {
		s.seterr(fmt.Errorf("dyn: ArriveAt job %d out of range [0,%d)", job, s.In.N))
		return s
	}
	if step < 0 {
		s.seterr(fmt.Errorf("dyn: ArriveAt step %d negative", step))
		return s
	}
	s.arrive[job] = step
	return s
}

// Breakdown takes machine down for steps [from, to).
func (s *Scenario) Breakdown(machine, from, to int) *Scenario {
	if machine < 0 || machine >= s.In.M {
		s.seterr(fmt.Errorf("dyn: Breakdown machine %d out of range [0,%d)", machine, s.In.M))
		return s
	}
	if from < 0 || to <= from {
		s.seterr(fmt.Errorf("dyn: Breakdown interval [%d,%d) invalid", from, to))
		return s
	}
	s.outages = append(s.outages, Outage{Machine: machine, From: from, To: to})
	return s
}

// Burst attaches a hidden failure-burst regime in the mixture
// parameterization (see BurstRegime); machine -1 bursts every
// machine. A p0 of 0 is a no-op.
func (s *Scenario) Burst(machine int, p0, alpha, severity float64) *Scenario {
	if p0 == 0 {
		return s
	}
	return s.AddRegime(BurstRegime(machine, p0, alpha, severity))
}

// AddRegime attaches an explicit Markov regime.
func (s *Scenario) AddRegime(r Regime) *Scenario {
	if r.Machine < -1 || r.Machine >= s.In.M {
		s.seterr(fmt.Errorf("dyn: regime machine %d out of range", r.Machine))
		return s
	}
	if bad := func(p float64) bool { return !(p >= 0 && p <= 1) }; bad(r.GoodToBad) || bad(r.BadToGood) || bad(r.Severity) {
		s.seterr(fmt.Errorf("dyn: regime probabilities and severity must lie in [0,1]"))
		return s
	}
	s.regimes = append(s.regimes, r)
	return s
}

// Validate reports the first builder error or an invalid underlying
// instance.
func (s *Scenario) Validate() error {
	if s.err != nil {
		return s.err
	}
	return s.In.Validate()
}

// Static reports whether the scenario has no effective events — the
// case the estimator delegates to the static engines.
func (s *Scenario) Static() bool {
	for _, at := range s.arrive {
		if at > 0 {
			return false
		}
	}
	return len(s.outages) == 0 && len(s.regimes) == 0
}

// timeline is the compiled form of a scenario's events, shared
// read-only by every walker of an estimation call.
type timeline struct {
	arrive []int
	// events lists the step times > 0 at which the availability
	// picture changes (arrivals land, outage boundaries pass), sorted
	// and deduplicated. Step-0 state is handled by reset.
	events []int
	topo   []int
	downs  [][]Outage
	// reg is indexed by machine; the walk reads Severity while the
	// machine is bad. regs lists the machines that carry a regime, in
	// machine order: the order of their per-step transition draws.
	reg  []Regime
	regs []regimeMachine
}

// regimeMachine is one machine's regime chain, compiled for the
// walk's transition loop.
type regimeMachine struct {
	machine              int
	goodToBad, badToGood float64
}

// compile validates the scenario and precomputes the timeline.
func (s *Scenario) compile() (*timeline, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	topo, err := s.In.Prec.TopoOrder()
	if err != nil {
		return nil, err
	}
	tl := &timeline{
		arrive: s.arrive,
		topo:   topo,
		downs:  make([][]Outage, s.In.M),
		reg:    make([]Regime, s.In.M),
	}
	regOn := make([]bool, s.In.M)
	set := map[int]bool{}
	for _, at := range s.arrive {
		if at > 0 {
			set[at] = true
		}
	}
	for _, o := range s.outages {
		tl.downs[o.Machine] = append(tl.downs[o.Machine], o)
		if o.From > 0 {
			set[o.From] = true
		}
		set[o.To] = true
	}
	for _, r := range s.regimes {
		if r.Machine < 0 {
			for i := range tl.reg {
				tl.reg[i] = r
				regOn[i] = true
			}
		} else {
			tl.reg[r.Machine] = r
			regOn[r.Machine] = true
		}
	}
	for i, on := range regOn {
		if on {
			r := tl.reg[i]
			tl.regs = append(tl.regs, regimeMachine{machine: i, goodToBad: r.GoodToBad, badToGood: r.BadToGood})
		}
	}
	for t := range set {
		tl.events = append(tl.events, t)
	}
	sort.Ints(tl.events)
	return tl, nil
}

// downAt reports whether machine i is inside an outage at step t.
// Machines carry at most a handful of intervals, so a linear scan at
// event epochs beats materializing per-step availability.
func (tl *timeline) downAt(i, t int) bool {
	for _, o := range tl.downs[i] {
		if o.From <= t && t < o.To {
			return true
		}
	}
	return false
}
