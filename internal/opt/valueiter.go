// Parallel bitset value iteration — the exact solver behind
// OptimalRegimen since the n≈20 frontier push.
//
// The engine replaces the 2^n closed-state scan and per-state
// 2^eligible subset sums of the exhaustive Malewicz-style DP (retained
// in opt.go as OptimalRegimenExhaustive, the parity oracle) with:
//
//   - Direct down-set generation: closed states (successor-closed
//     unfinished sets) are enumerated by BFS from the all-unfinished
//     state, removing one eligible job at a time. Every closed state of
//     a DAG is reachable this way, so the enumeration visits exactly
//     the reachable lattice — chains at n=20 have ~10^3 states where
//     the old scan would have tested 2^20 masks.
//   - Popcount layers with a worker pool: states within one layer have
//     no value dependencies (transitions strictly shrink the state), so
//     a layer is solved by workers pulling disjoint index ranges.
//     Per-state results depend only on previous layers, never on
//     scheduling, so values, regimens and stats are bit-identical at
//     any worker count.
//   - Memoized transition tables: for each state the successor values
//     of all removable eligible subsets of size ≤ m are materialized
//     once into a flat table indexed by slot mask (the adaptState
//     representation of internal/sim/adaptive.go, with values in place
//     of state ids). Note that for closed states the eligible set is
//     exactly the set of minimal elements and determines the state
//     (S is the union of the successor closures of its minimal
//     elements), so a per-(eligible-set, assignment) memo is per-state
//     sharing; the genuinely cross-state reuse is this flat-table
//     shape plus the per-leaf subset-probability DP below.
//   - Assignment search over *trialed* subsets: an assignment of m
//     machines trials at most min(m,k) of the k eligible jobs, so the
//     transition sum needs 2^t terms, not 2^k — the dominant win over
//     the oracle at widths like 12×4 (16 terms instead of 4096). The
//     DFS over machines maintains per-slot failure products
//     incrementally (multiply on entry, restore on exit — no
//     divisions, so p=1 rows are exact).
//   - Dominance/incumbent pruning: each leaf first computes a lower
//     bound from the exact no-completion and single-completion terms
//     plus the value of the all-trialed successor as a floor for the
//     remaining mass (values are monotone under job completion). A
//     greedy incumbent (each machine on its best eligible job) is
//     evaluated before the enumeration so the bound prunes from the
//     first leaf.
//   - Terminal-layer closed forms: states with ≤2 unfinished jobs are
//     solved by the closed-form expected-makespan expressions instead
//     of the DFS machinery.
package opt

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"suu/internal/model"
	"suu/internal/sched"
)

const (
	// MaxStates bounds the closed-state enumeration of the value
	// iteration (n=20 independent jobs is 2^20 states and fits; dense
	// precedence reaches far larger n because the lattice collapses).
	MaxStates = 1 << 21

	// svFlatMaxK is the widest eligible antichain for which workers
	// index successor values through a flat stamped table (2^k
	// entries); wider states fall back to a per-state map.
	svFlatMaxK = 20

	// viChunk is the number of states a worker claims per pull.
	viChunk = 16
)

// TooLargeError reports which exact-solver limit an instance exceeded,
// with enough context (n, m, state count, offending width) to tell
// what to shrink. It unwraps to ErrTooLarge.
type TooLargeError struct {
	N, M     int
	States   int    // closed states counted before the limit hit
	Eligible int    // eligible-antichain width of the offending state
	Need     int64  // assignments the offending state would enumerate
	Limit    string // "states" or "assignments"
}

func (e *TooLargeError) Error() string {
	switch e.Limit {
	case "assignments":
		return fmt.Sprintf(
			"opt: instance too large for exact computation: n=%d m=%d has %d closed states, but a state with %d eligible jobs needs %d^%d ≥ %d assignments (limit %d): reduce machines or antichain width",
			e.N, e.M, e.States, e.Eligible, e.Eligible, e.M, e.Need, MaxAssignmentsPerState)
	default:
		return fmt.Sprintf(
			"opt: instance too large for exact computation: n=%d m=%d exceeds %d closed states: add precedence or reduce jobs",
			e.N, e.M, MaxStates)
	}
}

func (e *TooLargeError) Unwrap() error { return ErrTooLarge }

// Stats describes one value-iteration run; solve.Get("optimal")
// surfaces States and Transitions in its Result.
type Stats struct {
	States      int   // closed states in the lattice
	Layers      int   // nonempty popcount layers processed
	MaxEligible int   // widest eligible antichain
	Workers     int   // layer-pool size used
	Assignments int64 // assignments enumerated across all states
	Pruned      int64 // assignments rejected by the incumbent bound
	Transitions int64 // successor-table entries materialized
	ClosedForm  int   // states solved by the ≤2-unfinished closed forms
}

// stateSpace is the enumerated closed-state lattice, sorted by
// (popcount, mask) so contiguous ranges form the popcount layers.
type stateSpace struct {
	n        int
	masks    []uint64 // masks[0] == 0, masks[len-1] == full
	elig     []uint64 // eligible (minimal-element) mask per state
	idx      map[uint64]int32
	layerOff []int32 // layer c states are masks[layerOff[c]:layerOff[c+1]]
	maxK     int     // max popcount of elig
}

// eligMask returns the eligible jobs of s: unfinished jobs whose
// predecessors are all finished (the minimal elements of s).
func eligMask(s uint64, pred []uint64) uint64 {
	var el uint64
	for t := s; t != 0; t &= t - 1 {
		j := bits.TrailingZeros64(t)
		if pred[j]&s == 0 {
			el |= 1 << uint(j)
		}
	}
	return el
}

// enumerateClosed generates every closed state reachable from the
// all-unfinished state by BFS over single eligible-job removals. For a
// DAG this is exactly the set of successor-closed masks. m only labels
// the error.
func enumerateClosed(in *model.Instance, m int) (*stateSpace, error) {
	n := in.N
	if n > 64 {
		return nil, &TooLargeError{N: n, M: m, Limit: "states"}
	}
	pred := make([]uint64, n)
	isolated := 0
	for j := 0; j < n; j++ {
		for _, p := range in.Prec.Preds(j) {
			pred[j] |= 1 << uint(p)
		}
	}
	for j := 0; j < n; j++ {
		if pred[j] == 0 && len(in.Prec.Succs(j)) == 0 {
			isolated++
		}
	}
	// Cheap refusal: c isolated jobs alone generate 2^c closed states,
	// so the BFS below would only burn MaxStates of work to learn the
	// same answer.
	if isolated > bits.Len(uint(MaxStates))-1 {
		return nil, &TooLargeError{N: n, M: m, States: MaxStates + 1, Limit: "states"}
	}
	full := uint64(1)<<uint(n) - 1
	idx := make(map[uint64]int32, 1024)
	masks := make([]uint64, 1, 1024)
	masks[0] = full
	idx[full] = 0
	if full != 0 {
		if _, ok := idx[0]; !ok {
			// The empty state is reachable for any DAG; seed it so even
			// degenerate (cyclic) precedence keeps the terminal state.
			idx[0] = 1
			masks = append(masks, 0)
		}
	}
	for head := 0; head < len(masks); head++ {
		s := masks[head]
		for e := eligMask(s, pred); e != 0; e &= e - 1 {
			s2 := s &^ (e & -e)
			if _, ok := idx[s2]; !ok {
				if len(masks) >= MaxStates {
					return nil, &TooLargeError{N: n, M: m, States: len(masks) + 1, Limit: "states"}
				}
				idx[s2] = int32(len(masks))
				masks = append(masks, s2)
			}
		}
	}
	sort.Slice(masks, func(a, b int) bool {
		pa, pb := bits.OnesCount64(masks[a]), bits.OnesCount64(masks[b])
		if pa != pb {
			return pa < pb
		}
		return masks[a] < masks[b]
	})
	sp := &stateSpace{
		n:        n,
		masks:    masks,
		elig:     make([]uint64, len(masks)),
		idx:      idx,
		layerOff: make([]int32, n+2),
	}
	for i, s := range masks {
		idx[s] = int32(i)
		el := eligMask(s, pred)
		sp.elig[i] = el
		if k := bits.OnesCount64(el); k > sp.maxK {
			sp.maxK = k
		}
	}
	c := 0
	for i, s := range masks {
		for pc := bits.OnesCount64(s); c < pc; c++ {
			sp.layerOff[c+1] = int32(i)
		}
	}
	for ; c <= n; c++ {
		sp.layerOff[c+1] = int32(len(masks))
	}
	return sp, nil
}

// powCap returns k^m, capped at limit+1.
func powCap(k, m int, limit int64) int64 {
	total := int64(1)
	for i := 0; i < m; i++ {
		total *= int64(k)
		if total > limit {
			return limit + 1
		}
	}
	return total
}

// viSolver holds the shared state of one value-iteration run.
type viSolver struct {
	in      *model.Instance
	sp      *stateSpace
	value   []float64
	assigns []sched.Assignment
}

// viWorker is the per-goroutine scratch. All fields are reused across
// states; nothing escapes to other workers, so per-state results are
// independent of the pool size. Every worker is built on one goroutine,
// and each writes its fields and small slices at every DFS leaf, so the
// struct and its slices are padded to cache lines of their own (see
// padded): packed side by side, two workers ran slower than one.
type viWorker struct {
	_  [cacheLine]byte
	vs *viSolver

	el     []int     // eligible jobs of the current state, slot order
	fail   []float64 // per-slot failure product along the DFS path
	cnt    []int32   // machines currently assigned to the slot
	digits []int32   // machine → slot on the DFS path
	bestD  []int32   // digits of the incumbent assignment
	trial  []int32   // trialed slots in first-touch order (a stack)
	tmask  uint32    // bitmask over slots of trial
	pre    []float64 // prefix failure products over trial

	list []uint32  // subset-probability DP: slot masks in build order
	pv   []float64 // probabilities parallel to list

	sv      []float64 // successor values by slot mask (flat, stamped)
	svStamp []int32
	svEpoch int32
	svMap   map[uint32]float64 // fallback when k > svFlatMaxK

	s     uint64 // current state
	k, m  int
	tmax  int // min(m, k): max trialed slots
	best  float64
	haveB bool

	assignments, pruned, transitions int64
	closedForm                       int
	_                                [cacheLine]byte
}

// cacheLine is the false-sharing unit padded around each worker's
// scratch.
const cacheLine = 64

// padded returns n zeroed elements with a cache line of unused
// elements on each side, so no other allocation shares a line with
// them.
func padded[T any](n int) []T {
	pad := cacheLine / int(unsafe.Sizeof(*new(T)))
	return make([]T, n+2*pad)[pad : pad+n : pad+n]
}

func newVIWorker(vs *viSolver) *viWorker {
	k := vs.sp.maxK
	m := vs.in.M
	w := &viWorker{
		vs:     vs,
		el:     padded[int](k)[:0],
		fail:   padded[float64](k),
		cnt:    padded[int32](k),
		digits: padded[int32](m),
		bestD:  padded[int32](m),
		trial:  padded[int32](min(m, k) + 1)[:0],
		pre:    padded[float64](min(m, k) + 2),
		best:   math.Inf(1),
	}
	if k <= svFlatMaxK && k > 0 {
		w.sv = padded[float64](1 << uint(k))
		w.svStamp = padded[int32](1 << uint(k))
	} else {
		w.svMap = make(map[uint32]float64)
	}
	t := min(m, k)
	if t > 0 {
		w.list = padded[uint32](1 << uint(t))
		w.pv = padded[float64](1 << uint(t))
	}
	return w
}

func (w *viWorker) setSV(mask uint32, v float64) {
	if w.sv != nil {
		w.sv[mask] = v
		w.svStamp[mask] = w.svEpoch
		return
	}
	w.svMap[mask] = v
}

func (w *viWorker) getSV(mask uint32) float64 {
	if w.sv != nil {
		return w.sv[mask]
	}
	return w.svMap[mask]
}

// fillSucc materializes the successor-value table: for every nonempty
// subset of ≤ tmax eligible slots, the value of the state with those
// jobs completed. This is the flat transition table the DFS leaves
// index in O(1).
func (w *viWorker) fillSucc() {
	if w.sv != nil {
		w.svEpoch++
	} else {
		clear(w.svMap)
	}
	w.fillSuccRec(0, 0, 0, 0)
}

func (w *viWorker) fillSuccRec(start int, mask uint32, rem uint64, depth int) {
	if mask != 0 {
		sp := w.vs.sp
		w.setSV(mask, w.vs.value[sp.idx[w.s&^rem]])
		w.transitions++
	}
	if depth == w.tmax {
		return
	}
	for d := start; d < w.k; d++ {
		w.fillSuccRec(d+1, mask|1<<uint(d), rem|1<<uint(w.el[d]), depth+1)
	}
}

// evalLeaf scores the current assignment (fail/cnt/trial reflect it).
// It first computes a lower bound from the exact empty and singleton
// completion terms, flooring the remaining mass with the all-trialed
// successor value (values are monotone under completions), and only
// runs the full 2^t subset DP when the bound beats the incumbent.
// bound=false (the greedy warm start) skips the pruning test.
func (w *viWorker) evalLeaf(bound bool) {
	w.assignments++
	t := len(w.trial)
	w.pre[0] = 1
	for i, d := range w.trial {
		w.pre[i+1] = w.pre[i] * w.fail[d]
	}
	pNone := w.pre[t]
	if pNone >= 1-1e-15 {
		return // no progress possible; value +Inf cannot beat any incumbent
	}
	denom := 1 - pNone
	if bound {
		suf := 1.0
		sing := 0.0
		lbSum := 0.0
		for i := t - 1; i >= 0; i-- {
			d := w.trial[i]
			pd := (1 - w.fail[d]) * w.pre[i] * suf
			suf *= w.fail[d]
			if pd != 0 {
				sing += pd
				lbSum += pd * w.getSV(1<<uint(d))
			}
		}
		if rest := denom - sing; rest > 1e-18 {
			lbSum += rest * w.getSV(w.tmask)
		}
		if (1+lbSum)/denom >= w.best {
			w.pruned++
			return
		}
	}
	// Full transition sum via the subset-probability DP over trialed
	// slots: after processing slot d, list/pv hold every subset of the
	// slots so far with its exact probability.
	size := 1
	w.list[0], w.pv[0] = 0, 1
	for _, d := range w.trial {
		f := w.fail[d]
		q := 1 - f
		for i := 0; i < size; i++ {
			w.list[size+i] = w.list[i] | 1<<uint(d)
			w.pv[size+i] = w.pv[i] * q
			w.pv[i] *= f
		}
		size <<= 1
	}
	sum := 0.0
	for i := 1; i < size; i++ {
		if p := w.pv[i]; p != 0 {
			sum += p * w.getSV(w.list[i])
		}
	}
	if v := (1 + sum) / denom; v < w.best {
		w.best = v
		w.haveB = true
		copy(w.bestD, w.digits)
	}
}

// dfs enumerates assignments machine by machine, maintaining per-slot
// failure products and the trialed-slot stack incrementally.
func (w *viWorker) dfs(i int) {
	if i == w.m {
		w.evalLeaf(true)
		return
	}
	row := w.vs.in.P[i]
	for d := 0; d < w.k; d++ {
		saved := w.fail[d]
		w.fail[d] = saved * (1 - row[w.el[d]])
		if w.cnt[d]++; w.cnt[d] == 1 {
			w.tmask |= 1 << uint(d)
			w.trial = append(w.trial, int32(d))
		}
		w.digits[i] = int32(d)
		w.dfs(i + 1)
		if w.cnt[d]--; w.cnt[d] == 0 {
			w.tmask &^= 1 << uint(d)
			w.trial = w.trial[:len(w.trial)-1]
		}
		w.fail[d] = saved
	}
}

// applyDigits evaluates one explicit assignment (the greedy warm
// start) through the same leaf scoring as the DFS.
func (w *viWorker) applyDigits(digits []int32) {
	for i, d := range digits {
		w.fail[d] *= 1 - w.vs.in.P[i][w.el[d]]
		if w.cnt[d]++; w.cnt[d] == 1 {
			w.tmask |= 1 << uint(d)
			w.trial = append(w.trial, d)
		}
		w.digits[i] = d
	}
	w.evalLeaf(false)
	for _, d := range digits {
		if w.cnt[d]--; w.cnt[d] == 0 {
			w.tmask &^= 1 << uint(d)
			w.trial = w.trial[:len(w.trial)-1]
		}
	}
	for d := 0; d < w.k; d++ {
		w.fail[d] = 1
	}
}

// solveState computes the optimal value and assignment of one state.
func (w *viWorker) solveState(si int32) {
	vs := w.vs
	s := vs.sp.masks[si]
	if bits.OnesCount64(s) <= 2 {
		w.solveTerminal(si)
		return
	}
	elm := vs.sp.elig[si]
	if elm == 0 {
		// No eligible job (cyclic precedence): permanently stuck.
		vs.value[si] = math.Inf(1)
		return
	}
	w.s = s
	w.el = w.el[:0]
	for e := elm; e != 0; e &= e - 1 {
		w.el = append(w.el, bits.TrailingZeros64(e))
	}
	w.k = len(w.el)
	w.m = vs.in.M
	w.tmax = min(w.m, w.k)
	for d := 0; d < w.k; d++ {
		w.fail[d] = 1
		w.cnt[d] = 0
	}
	w.trial = w.trial[:0]
	w.tmask = 0
	w.best = math.Inf(1)
	w.haveB = false

	w.fillSucc()

	// Greedy warm start: machine i on its best eligible job. Gives the
	// incumbent bound teeth from the very first DFS leaf.
	for i := 0; i < w.m; i++ {
		row := vs.in.P[i]
		bd := 0
		for d := 1; d < w.k; d++ {
			if row[w.el[d]] > row[w.el[bd]] {
				bd = d
			}
		}
		w.digits[i] = int32(bd)
	}
	copy(w.bestD, w.digits)
	w.applyDigits(w.digits[:w.m])

	w.dfs(0)

	vs.value[si] = w.best
	if w.haveB {
		a := make(sched.Assignment, w.m)
		for i := 0; i < w.m; i++ {
			a[i] = w.el[w.bestD[i]]
		}
		vs.assigns[si] = a
	}
}

// solveTerminal applies the ≤2-unfinished closed forms: a single
// unfinished job is ganged by every machine (E = 1/q), and a pair is
// either a chain (gang the head, then the tail's 1-job form) or an
// antichain solved over the 2^m machine splits with the two-job
// formula.
func (w *viWorker) solveTerminal(si int32) {
	vs := w.vs
	in := vs.in
	s := vs.sp.masks[si]
	m := in.M
	w.closedForm++
	switch bits.OnesCount64(s) {
	case 1:
		j := bits.TrailingZeros64(s)
		fail := 1.0
		for i := 0; i < m; i++ {
			fail *= 1 - in.P[i][j]
		}
		if fail >= 1-1e-15 {
			vs.value[si] = math.Inf(1)
			return
		}
		vs.value[si] = 1 / (1 - fail)
		a := make(sched.Assignment, m)
		for i := range a {
			a[i] = j
		}
		vs.assigns[si] = a
	case 2:
		a := bits.TrailingZeros64(s)
		b := bits.TrailingZeros64(s &^ (1 << uint(a)))
		elm := vs.sp.elig[si]
		if bits.OnesCount64(elm) == 1 {
			// Chain: only the head is eligible; gang it, then the
			// remaining single job.
			head := bits.TrailingZeros64(elm)
			rest := s &^ (1 << uint(head))
			fail := 1.0
			for i := 0; i < m; i++ {
				fail *= 1 - in.P[i][head]
			}
			if fail >= 1-1e-15 {
				vs.value[si] = math.Inf(1)
				return
			}
			q := 1 - fail
			vs.value[si] = (1 + q*vs.value[vs.sp.idx[rest]]) / q
			as := make(sched.Assignment, m)
			for i := range as {
				as[i] = head
			}
			vs.assigns[si] = as
			return
		}
		// Antichain pair: enumerate the 2^m splits of machines onto
		// {a, b}; bit i of msk sends machine i to b.
		va := vs.value[vs.sp.idx[s&^(1<<uint(b))]] // b done, a remains
		vb := vs.value[vs.sp.idx[s&^(1<<uint(a))]] // a done, b remains
		best := math.Inf(1)
		bestMsk := -1
		for msk := 0; msk < 1<<uint(m); msk++ {
			failA, failB := 1.0, 1.0
			for i := 0; i < m; i++ {
				if msk>>uint(i)&1 == 0 {
					failA *= 1 - in.P[i][a]
				} else {
					failB *= 1 - in.P[i][b]
				}
			}
			pNone := failA * failB
			if pNone >= 1-1e-15 {
				continue
			}
			qa, qb := 1-failA, 1-failB
			sum := 0.0
			if p := qa * failB; p != 0 {
				sum += p * vb
			}
			if p := failA * qb; p != 0 {
				sum += p * va
			}
			if v := (1 + sum) / (1 - pNone); v < best {
				best = v
				bestMsk = msk
			}
		}
		vs.value[si] = best
		if bestMsk >= 0 {
			as := make(sched.Assignment, m)
			for i := 0; i < m; i++ {
				if bestMsk>>uint(i)&1 == 0 {
					as[i] = a
				} else {
					as[i] = b
				}
			}
			vs.assigns[si] = as
		}
	}
}

// OptimalRegimenParallel computes the optimal regimen, its exact
// expected makespan, and run statistics using the layered value
// iteration with the given worker count (0 = GOMAXPROCS). Results are
// bit-identical at any worker count.
func OptimalRegimenParallel(in *model.Instance, workers int) (*sched.Regimen, float64, *Stats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sp, err := enumerateClosed(in, in.M)
	if err != nil {
		return nil, 0, nil, err
	}
	if need := powCap(sp.maxK, in.M, MaxAssignmentsPerState); need > MaxAssignmentsPerState {
		return nil, 0, nil, &TooLargeError{
			N: in.N, M: in.M, States: len(sp.masks),
			Eligible: sp.maxK, Need: need, Limit: "assignments",
		}
	}
	ns := len(sp.masks)
	vs := &viSolver{
		in:      in,
		sp:      sp,
		value:   make([]float64, ns),
		assigns: make([]sched.Assignment, ns),
	}
	if workers > ns {
		workers = ns
	}
	if workers < 1 {
		workers = 1
	}
	ws := make([]*viWorker, workers)
	for i := range ws {
		ws[i] = newVIWorker(vs)
	}
	st := &Stats{States: ns, MaxEligible: sp.maxK, Workers: workers}
	for c := 1; c <= sp.n; c++ {
		lo, hi := sp.layerOff[c], sp.layerOff[c+1]
		if lo == hi {
			continue
		}
		st.Layers++
		var next atomic.Int64
		next.Store(int64(lo))
		var wg sync.WaitGroup
		for _, w := range ws {
			wg.Add(1)
			go func(w *viWorker) {
				defer wg.Done()
				for {
					i := next.Add(viChunk) - viChunk
					if i >= int64(hi) {
						return
					}
					end := i + viChunk
					if end > int64(hi) {
						end = int64(hi)
					}
					for si := i; si < end; si++ {
						w.solveState(int32(si))
					}
				}
			}(w)
		}
		wg.Wait()
	}
	for _, w := range ws {
		st.Assignments += w.assignments
		st.Pruned += w.pruned
		st.Transitions += w.transitions
		st.ClosedForm += w.closedForm
	}
	reg := sched.NewRegimen(in.N, in.M)
	for i := 1; i < ns; i++ {
		reg.F[sp.masks[i]] = vs.assigns[i]
	}
	return reg, vs.value[ns-1], st, nil
}
