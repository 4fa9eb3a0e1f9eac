package sim

import (
	"math/bits"
	"slices"

	"suu/internal/dag"
	"suu/internal/model"
	"suu/internal/sched"
)

// The compiled adaptive engine extends the compiled-oblivious idea to
// stationary policies (sched.Memoizable): because such a policy's
// assignment is a pure function of the unfinished set, each
// estimation worker memoizes, per unfinished-set key it visits,
// exactly what the generic step engine would do in that state: which
// jobs receive a completion draw (in the step engine's machine-scan
// order), each job's combined single-step success probability, and the
// successor state for every completion outcome. The first visit to a
// state costs one policy call; every later visit is one slice lookup
// plus one uniform draw per trialed job, and a successor is resolved
// the first time its transition is taken. A call only digests the
// states its repetitions reach, which can be a small part of the
// reachable space (162 of 711 on the independent 12×4 adaptive_engine
// instance at 3000 repetitions).
//
// The walk consumes uniforms in the same order and compares them
// against bit-identical probabilities (the fail products are
// accumulated in machine order, exactly as runState does), so the
// makespan distribution — and therefore every stats.Summary — is
// bit-identical to the generic step engine's at any worker count.
// Each worker owns its memo, so nothing is shared but the policy.
//
// The memo is bounded: a worker keeps at most the call's state budget
// (callBudget) and maxAdaptiveTableEntries successor slots. A state
// past either cap is digested into a reused scratch state that is not
// kept, so draws still match the step engine; only the policy call is
// repeated. The walk tracks no mass: MassWithinHorizon runs the step
// engine, which matches it draw for draw.

// DefaultAdaptiveCompileBudget bounds the states one worker memoizes.
// Profitability, not memory, sets it: memoizing a state costs one
// policy call, so the memo only pays while it stays well under reps ×
// makespan state-visits. Calls lower it further to 64× their
// repetition count (see callBudget).
const DefaultAdaptiveCompileBudget = 8192

// maxAdaptiveTableEntries caps one worker's summed successor-array
// size (Σ 2^trialed(s)); states trial at most m jobs, so wide-machine
// instances hit this before the state budget.
const maxAdaptiveTableEntries = 1 << 21

// maxMemoFanout bounds the trialed jobs of a kept state, so its 2^k
// successor array stays allocatable. Wider states run from scratch.
const maxMemoFanout = 20

// adaptState is one digested state: a generic-engine step in that
// state, plus the successor index for every completion outcome.
type adaptState struct {
	// mask is the state's unfinished set.
	mask uint64
	// trials lists the step's completion draws in the step engine's
	// order (first machine touch).
	trials []trial
	// next[sub] is the state reached when exactly the jobs whose bits
	// are set in sub (indexing jobs, not global job ids) complete:
	// unresolvedNext until the transition is first taken, finishedNext
	// for the all-finished set, else the kept state's index. The
	// scratch state has no next array.
	next []int32
}

// trial is one completion draw: job's combined success probability
// 1-Π(1-p_ij) with the product taken in machine order.
type trial struct {
	job  int
	succ float64
}

const (
	unresolvedNext int32 = 0
	finishedNext   int32 = -1
)

// scratchState is the index of a worker's scratch state. Index 0 is
// never a kept state, which lets unresolvedNext share its value.
const scratchState int32 = 0

// adaptRunner is one worker's memo and walk state.
type adaptRunner struct {
	pred   []uint64 // the precedence dag's predecessor masks
	pol    sched.Memoizable
	p      []float64
	n, m   int
	budget int
	// keys maps every unfinished set this worker has digested, up to
	// budget of them, to its kept index (scratchState when it was not
	// kept because the slot cap was reached).
	keys   map[uint64]int32
	states []adaptState // states[0] is the scratch state
	slots  int
	// start is the full set's kept index (scratchState until kept).
	start int32

	// Digest scratch.
	st   sched.State
	fail []float64
	seen []bool
}

// memoizable reports whether the compiled adaptive engine runs pol on
// in: a sched.Memoizable policy with no outcome observation (feedback
// is history, which a memo cannot carry) on 1..64 jobs (an unfinished
// set is one mask word).
func memoizable(in *model.Instance, pol sched.Policy) (sched.Memoizable, bool) {
	mpol, ok := pol.(sched.Memoizable)
	if !ok || in.N < 1 || in.N > 64 {
		return nil, false
	}
	if _, observes := pol.(sched.OutcomeObserver); observes {
		return nil, false
	}
	return mpol, true
}

func newAdaptRunner(in *model.Instance, pol sched.Memoizable, budget int) *adaptRunner {
	n := in.N
	r := &adaptRunner{
		pred:   in.Prec.PredMasks(),
		pol:    pol,
		p:      in.Flat(),
		n:      n,
		m:      in.M,
		budget: budget,
		keys:   make(map[uint64]int32),
		states: make([]adaptState, 1, 64),
		fail:   make([]float64, n),
		seen:   make([]bool, n),
	}
	r.st = sched.State{Unfinished: make([]bool, n), Eligible: make([]bool, n)}
	r.states[scratchState].trials = make([]trial, 0, min(n, r.m))
	return r
}

// visit returns the index of unfinished-set mask's digest: its kept
// state, digested and kept on the first visit while the caps allow,
// or the scratch state freshly digested.
func (r *adaptRunner) visit(mask uint64) int32 {
	idx, known := r.keys[mask]
	if known && idx != scratchState {
		return idx
	}
	r.digest(mask)
	if known || len(r.keys) >= r.budget {
		return scratchState
	}
	trials := r.states[scratchState].trials
	k := len(trials)
	if k > maxMemoFanout || r.slots+(1<<uint(k)) > maxAdaptiveTableEntries {
		r.keys[mask] = scratchState
		return scratchState
	}
	r.slots += 1 << uint(k)
	s := adaptState{
		mask:   mask,
		trials: slices.Clone(trials),
		next:   make([]int32, 1<<uint(k)),
	}
	idx = int32(len(r.states))
	r.states = append(r.states, s)
	r.keys[mask] = idx
	return idx
}

// digest computes mask's state into the scratch state exactly as
// runState.runFrom would play the policy's assignment there: machines
// on ineligible jobs idle, fail products accumulate in machine order,
// draw order is first-touch order. seen, not fail[j]==0, marks first
// touches — a p_ij of exactly 1 zeroes the product and must not
// re-enroll the job (runFrom uses the same marker, keeping the digests
// aligned draw for draw).
func (r *adaptRunner) digest(mask uint64) {
	n, p := r.n, r.p
	unf, elig := r.st.Unfinished, r.st.Eligible
	el := dag.Eligible(mask, r.pred)
	for j := 0; j < n; j++ {
		unf[j] = mask&(1<<uint(j)) != 0
		elig[j] = el&(1<<uint(j)) != 0
	}
	a := r.pol.Assign(&r.st)
	sc := &r.states[scratchState]
	sc.mask = mask
	sc.trials = sc.trials[:0]
	for i := 0; i < r.m && i < len(a); i++ {
		j := a[i]
		if j == sched.Idle || j < 0 || j >= n || !elig[j] {
			continue
		}
		if !r.seen[j] {
			r.seen[j] = true
			r.fail[j] = 1
			sc.trials = append(sc.trials, trial{job: j})
		}
		r.fail[j] *= 1 - p[i*n+j]
	}
	for b := range sc.trials {
		tr := &sc.trials[b]
		tr.succ = 1 - r.fail[tr.job]
		r.seen[tr.job] = false
	}
}

// run plays one repetition through the memo. Draw for draw it
// performs the same completion trials as the step engine, in the same
// order, against the same probabilities, so the makespan distribution
// is bit-identical. Once the memo holds every state a repetition
// reaches, the loop allocates nothing.
func (r *adaptRunner) run(maxSteps int, rng Rand) (int, bool) {
	cur := r.start
	if cur == scratchState {
		cur = r.visit(uint64(1)<<uint(r.n) - 1) // n = 64 wraps to all ones
		r.start = cur
	}
	for t := 0; t < maxSteps; t++ {
		s := &r.states[cur]
		var sub uint64
		for k := range s.trials {
			tr := &s.trials[k]
			var bit uint64 // set without a branch: draws are coin flips
			if rng.Float64() < tr.succ {
				bit = 1
			}
			sub |= bit << uint(k)
		}
		if sub == 0 {
			// Nothing completed; a state with no trialed jobs is stuck,
			// exactly like the step engine under an all-idle assignment.
			continue
		}
		nxt := unresolvedNext
		if s.next != nil {
			nxt = s.next[sub]
		}
		if nxt == unresolvedNext {
			var done uint64
			for b := sub; b != 0; b &= b - 1 {
				done |= 1 << uint(s.trials[bits.TrailingZeros64(b)].job)
			}
			rest := s.mask &^ done
			nxt = finishedNext
			if rest != 0 {
				nxt = r.visit(rest) // may move r.states and reuse the scratch
			}
			if cur != scratchState && nxt != scratchState {
				r.states[cur].next[sub] = nxt
			}
		}
		if nxt == finishedNext {
			return t + 1, true
		}
		cur = nxt
	}
	return maxSteps, false
}

// memoizedStates is a call's EngineUsed.States: the distinct
// unfinished sets its workers digested, capped at budget. A worker
// records every set it visits until it holds budget keys, so the
// count is min(distinct states visited, budget) at every worker
// count.
func memoizedStates(workers []*adaptRunner, budget int) int {
	if len(workers) == 1 {
		return min(len(workers[0].keys), budget)
	}
	union := make(map[uint64]struct{})
	for _, w := range workers {
		if len(w.keys) >= budget {
			return budget
		}
		for k := range w.keys {
			union[k] = struct{}{}
		}
	}
	return min(len(union), budget)
}
