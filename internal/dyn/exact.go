package dyn

import (
	"errors"
	"fmt"

	"suu/internal/sched"
)

// maxExactBits caps ExactMakespan's state space at 2^20: the closed
// sets of the precedence dag times 2^k regime vectors, for the k
// machines that carry a regime.
const maxExactBits = 20

// exactTol is the truncation error ExactMakespan accepts short of the
// step cap.
const exactTol = 1e-12

// ExactMakespan returns E[min(T, maxSteps)] for strat's walk on sc,
// where T is the makespan, and a residual, described below, that tells
// a capped value from E[T]. It is the oracle the Monte Carlo walks are
// pinned to.
//
// It pushes probability mass forward one step at a time over states
// (unfinished set, regime vector of the regime machines) and sums
// P(T > t) over t < maxSteps. An unfinished set is always closed under
// successors in the precedence dag, so mass is indexed by the sets of
// dag.Lattice, not by all 2^n. Arrivals and outages are functions of
// the step, so they add no state. Each step follows the walk: the
// regime transition comes first (step 0 included), then the strategy
// assigns from the visible state, and every up machine assigned an
// eligible job trials it. A job trialed by several machines completes
// with probability 1 − Π(1 − p), where p is scaled by the severity of
// each machine that is bad. Propagation stops once the unfinished mass
// u after step s bounds the missing terms, u·(maxSteps − 1 − s) ≤
// 1e-12, and that product is the residual. Otherwise it reaches
// maxSteps, and the residual is the mass still unfinished there,
// P(T ≥ maxSteps), so a caller can tell E[min(T, maxSteps)] from E[T].
//
// The strategy's assignment must be a pure function of the step and
// the visible state. That holds for AdaptiveStrategy, and for
// StaticStrategy over any deterministic policy: oblivious schedules,
// regimens, the adaptive policies. Outcome observers, RollingStrategy
// (its plan is hidden state) and more than 2^20 states (closed sets ×
// 2^k regime vectors) are errors. The cost is O(steps × live sets ×
// 2^k × 2^(jobs trialed)).
func ExactMakespan(sc *Scenario, strat Strategy, maxSteps int) (mean, residual float64, err error) {
	switch s := strat.(type) {
	case *AdaptiveStrategy:
	case *StaticStrategy:
		if !s.parallelizable() {
			return 0, 0, errors.New("dyn: ExactMakespan cannot evaluate an outcome-observing policy")
		}
	default:
		return 0, 0, fmt.Errorf("dyn: ExactMakespan evaluates static and adaptive strategies, not %q", strat.Name())
	}
	if maxSteps <= 0 {
		return 0, 0, fmt.Errorf("dyn: maxSteps must be positive, got %d", maxSteps)
	}
	tl, err := sc.compile()
	if err != nil {
		return 0, 0, err
	}
	in := sc.In
	n, m, k := in.N, in.M, len(tl.Regimes)
	lat, err := in.Prec.Lattice(1 << maxExactBits >> k)
	if err != nil {
		return 0, 0, fmt.Errorf("dyn: ExactMakespan caps closed sets × 2^%d regime vectors at 2^%d states: %w", k, maxExactBits, err)
	}
	nk := 1 << k

	// slot[i] is machine i's bit in a regime vector, or -1.
	slot := make([]int, m)
	for i := range slot {
		slot[i] = -1
	}
	for r, rm := range tl.Regimes {
		slot[rm.Machine] = r
	}

	// cur and next hold the mass of (unfinished set i, regime vector v)
	// at index i·2^k + v, where i indexes lat.Masks; live lists the sets
	// that carry mass. Index 0 is the empty set, the last the full set.
	ns := len(lat.Masks)
	cur := make([]float64, ns*nk)
	next := make([]float64, ns*nk)
	listed := make([]bool, ns)
	full := int32(ns - 1)
	cur[int(full)*nk] = 1
	live, nextLive := []int32{full}, []int32(nil)

	w := strat.NewWalker()
	st := sched.State{
		Unfinished: make([]bool, n),
		Eligible:   make([]bool, n),
		Arrived:    make([]bool, n),
		Up:         make([]bool, m),
	}
	type trial struct{ machine, job int }
	var trials []trial
	var jobs []int             // trialed jobs, in order of first trial
	fail := make([]float64, n) // per trialed job, for one regime vector
	succ := make([]int32, 1)   // subset DP: successor set of each outcome
	prob := make([]float64, 1) // and its probability
	unfinished := 1.0          // P(T > t)
	mean = unfinished
	evt := 0

	for t := 0; t+1 < maxSteps; t++ {
		epoch := t == 0
		for evt < len(tl.Events) && tl.Events[evt] == t {
			epoch = true
			evt++
		}
		if epoch {
			for j := range st.Arrived {
				st.Arrived[j] = tl.Arrive[j] <= t
			}
			for i := range st.Up {
				st.Up[i] = !tl.Down(i, t)
			}
		}
		st.Step, st.Epoch = t, epoch

		for _, li := range live {
			row := cur[int(li)*nk : int(li+1)*nk]
			for r, rm := range tl.Regimes {
				gb, bg := rm.GoodToBad, rm.BadToGood
				for v := 0; v < nk; v++ {
					if v>>r&1 == 0 {
						good, bad := row[v], row[v|1<<r]
						row[v] = good*(1-gb) + bad*bg
						row[v|1<<r] = good*gb + bad*(1-bg)
					}
				}
			}

			s, el := lat.Masks[li], lat.Elig[li]
			for j := 0; j < n; j++ {
				st.Unfinished[j] = s>>j&1 == 1
				st.Eligible[j] = el>>j&1 == 1 && st.Arrived[j]
			}
			a := w.Assign(&st)
			trials, jobs = trials[:0], jobs[:0]
			for i := 0; i < m; i++ {
				j := a[i]
				if !st.Up[i] || j == sched.Idle || j < 0 || j >= n || !st.Eligible[j] {
					continue
				}
				trials = append(trials, trial{i, j})
				seen := false
				for _, x := range jobs {
					seen = seen || x == j
				}
				if !seen {
					jobs = append(jobs, j)
				}
			}
			if need := 1 << len(jobs); len(succ) < need {
				succ, prob = make([]int32, need), make([]float64, need)
			}
			// Outcome x completes the jobs of the bits set in x, in the
			// order of jobs; its successor set does not depend on v.
			succ[0] = li
			for b, j := range jobs {
				for x := 0; x < 1<<b; x++ {
					succ[1<<b+x] = lat.Without(succ[x], j)
				}
			}

			for v, mass := range row {
				if mass == 0 {
					continue
				}
				for _, j := range jobs {
					fail[j] = 1
				}
				for _, tr := range trials {
					p := in.P[tr.machine][tr.job]
					if r := slot[tr.machine]; r >= 0 && v>>r&1 == 1 {
						p *= tl.Regimes[r].Severity
					}
					fail[tr.job] *= 1 - p
				}
				size := 1
				prob[0] = mass
				for _, j := range jobs {
					f := fail[j]
					for x := 0; x < size; x++ {
						prob[size+x] = prob[x] * (1 - f)
						prob[x] *= f
					}
					size <<= 1
				}
				for x := 0; x < size; x++ {
					to := succ[x]
					if to == 0 || prob[x] == 0 {
						continue
					}
					if !listed[to] {
						listed[to] = true
						nextLive = append(nextLive, to)
					}
					next[int(to)*nk+v] += prob[x]
				}
			}
			clear(row)
		}

		unfinished = 0
		for _, li := range nextLive {
			listed[li] = false
			for _, x := range next[int(li)*nk : int(li+1)*nk] {
				unfinished += x
			}
		}
		cur, next = next, cur
		live, nextLive = nextLive, live[:0]
		mean += unfinished // P(T > t+1)
		if left := maxSteps - 2 - t; left > 0 && unfinished*float64(left) <= exactTol {
			return mean, unfinished * float64(left), nil
		}
	}
	return mean, unfinished, nil
}
