// Parallel bitset value iteration — the exact solver behind
// OptimalRegimen since the n≈20 frontier push.
//
// The engine replaces the 2^n closed-state scan and per-state
// 2^eligible subset sums of the exhaustive Malewicz-style DP (retained
// in opt.go as OptimalRegimenExhaustive, the parity oracle) with:
//
//   - Direct down-set generation: the closed states (successor-closed
//     unfinished sets) come from dag.Lattice, which enumerates them by
//     BFS from the all-unfinished state, removing one eligible job at a
//     time. Every closed state of a DAG is reachable this way, so the
//     enumeration visits exactly the reachable lattice — chains at n=20
//     have ~10^3 states where the old scan would have tested 2^20
//     masks.
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
//     of state ids). The table is filled by chaining single removals
//     through the lattice's successor array (dag.Lattice.Without), so no
//     state is looked up by mask once the lattice is built. Note that
//     for closed states the eligible set is exactly the set of minimal
//     elements and determines the state (S is the union of the
//     successor closures of its minimal elements), so a
//     per-(eligible-set, assignment) memo is per-state sharing; the
//     genuinely cross-state reuse is this flat-table shape plus the
//     per-leaf subset-probability DP below.
//   - Assignment search over *trialed* subsets: an assignment of m
//     machines trials at most min(m,k) of the k eligible jobs, so the
//     transition sum needs 2^t terms, not 2^k — the dominant win over
//     the oracle at widths like 12×4 (16 terms instead of 4096). The
//     DFS over machines maintains per-slot failure products
//     incrementally (multiply on entry, restore on exit — no
//     divisions, so p=1 rows are exact).
//   - Gain-bound branch and bound: with incumbent value x, an
//     assignment strictly beats x iff its gain
//     G(x) = Σ_{U≠∅} P(U)·(x − E[S∖U]) exceeds 1 (Dinkelbach's
//     parametric form of the ratio (1+Σ)/(1−P(∅))). Putting machine i
//     on slot d raises G by p_{i,d}·E_U[Δ_d(U)], where
//     Δ_d(U) = Ẽ(U) − Ẽ(U∪{d}) with Ẽ(∅) = x and Ẽ(U) = E[S∖U]
//     otherwise; that is at most p_{i,d}·Δ⁽ⁱ⁾_d, the maximum of
//     Δ_d(U) over |U| ≤ i, read once per state from the successor table
//     at the greedy warm start's value (x only falls, so the bound
//     stays valid). The DFS keeps each node's completed-set
//     distribution, so its gain is exact at the current incumbent, and
//     cuts a child when that gain plus the child's bound plus the best
//     the remaining machines could add is ≤ 1 − 1e-9. Only leaves that
//     can win reach evalLeaf, whose subset DP values them. The visiting
//     order is the exhaustive one (greedy first, then lexicographic,
//     strict <), and a cut leaf's value exceeds the incumbent by more
//     than rounding, so values and regimens are bit-identical to
//     valuing every leaf. If the greedy assignment (which minimizes
//     P(∅)) cannot make progress or has infinite value, no assignment
//     does better, and the state takes +Inf without a search.
//   - Terminal-layer closed forms: states with ≤2 unfinished jobs are
//     solved by the closed-form expected-makespan expressions instead
//     of the DFS machinery.
package opt

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"unsafe"

	"suu/internal/dag"
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
	Assignments int64 // leaves the search valued with the subset DP, beyond each greedy warm start
	Pruned      int64 // search-tree children the gain bound cut, at any depth
	Transitions int64 // successor-table entries materialized
	ClosedForm  int   // states solved by the ≤2-unfinished closed forms
}

// lattice returns in's closed-state lattice, or a *TooLargeError
// naming the states limit when it holds more than MaxStates states.
func lattice(in *model.Instance) (*dag.Lattice, error) {
	lat, err := in.Prec.Lattice(MaxStates)
	if se, ok := err.(*dag.StatesError); ok {
		return nil, &TooLargeError{N: in.N, M: in.M, States: se.States, Limit: "states"}
	}
	return lat, err
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
	lat     *dag.Lattice
	value   []float64
	assigns []sched.Assignment
}

// gainCut is the gain at or below which the search cuts a child. A cut
// leaf's value exceeds the incumbent by at least 1e-9/(1−P(∅)), far
// above the rounding of evalLeaf's arithmetic, so no leaf that could
// win or tie is ever cut.
const gainCut = 1 - 1e-9

// viWorker is the per-goroutine scratch. All fields are reused across
// states; nothing escapes to other workers, so per-state results are
// independent of the pool size. Every worker is built on one goroutine,
// and each writes its fields and small slices at every DFS node, so the
// struct and its slices are padded to cache lines of their own (see
// padded): packed side by side, two workers ran slower than one.
type viWorker struct {
	_  [cacheLine]byte
	vs *viSolver

	el     []int     // eligible jobs of the current state, slot order
	fail   []float64 // per-slot failure product along the DFS path
	cnt    []int32   // machines currently assigned to the slot
	pos    []int32   // the slot's index in trial while cnt > 0
	digits []int32   // machine → slot on the DFS path
	bestD  []int32   // digits of the incumbent assignment
	trial  []int32   // trialed slots in first-touch order (a stack)

	list []uint32  // subset-probability DP: slot masks in build order
	pv   []float64 // probabilities parallel to list

	// Gain-bound search. A node's completed-slot set U is indexed by a
	// mask over positions in trial: umask[u] is its slot mask, and
	// dist[i][u] its probability at depth i (machines 0..i-1 placed).
	// notDone[i] = 1 − P(∅) and gone[i] = Σ_{U≠∅} P(U)·E[S∖U] at depth
	// i, so the node's gain at incumbent x is x·notDone[i] − gone[i].
	umask   []uint32
	dist    [][]float64
	notDone []float64
	gone    []float64
	delta   []float64 // delta[c*k+d]: Δ⁽ᶜ⁾_d, the gain bound of slot d when |U| ≤ c
	rest    []float64 // rest[i]: Σ_{i'≥i} max_d p_{i',d}·Δ⁽ⁱ'⁾_d

	sv    []float64          // successor values by slot mask (flat)
	svMap map[uint32]float64 // fallback when k > svFlatMaxK

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
	k := vs.lat.MaxK
	m := vs.in.M
	t := min(m, k)
	w := &viWorker{
		vs:      vs,
		el:      padded[int](k)[:0],
		fail:    padded[float64](k),
		cnt:     padded[int32](k),
		pos:     padded[int32](k),
		digits:  padded[int32](m),
		bestD:   padded[int32](m),
		trial:   padded[int32](t + 1)[:0],
		list:    padded[uint32](1 << uint(t)),
		pv:      padded[float64](1 << uint(t)),
		umask:   padded[uint32](1 << uint(t)),
		dist:    make([][]float64, m),
		notDone: padded[float64](m),
		gone:    padded[float64](m),
		delta:   padded[float64](m * k),
		rest:    padded[float64](m + 1),
		best:    math.Inf(1),
	}
	for i := range w.dist {
		w.dist[i] = padded[float64](1 << uint(min(i, k)))
	}
	if k <= svFlatMaxK && k > 0 {
		w.sv = padded[float64](1 << uint(k))
	} else {
		w.svMap = make(map[uint32]float64)
	}
	return w
}

func (w *viWorker) setSV(mask uint32, v float64) {
	if w.sv != nil {
		w.sv[mask] = v
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
// jobs completed. This is the flat transition table the search
// indexes in O(1).
func (w *viWorker) fillSucc(si int32) {
	if w.sv == nil {
		clear(w.svMap)
	}
	w.fillSuccRec(0, 0, si, 0)
}

func (w *viWorker) fillSuccRec(start int, mask uint32, t int32, depth int) {
	if mask != 0 {
		w.setSV(mask, w.vs.value[t])
		w.transitions++
	}
	if depth == w.tmax {
		return
	}
	for d := start; d < w.k; d++ {
		w.fillSuccRec(d+1, mask|1<<uint(d), w.vs.lat.Without(t, w.el[d]), depth+1)
	}
}

// evalLeaf values the current assignment (fail/trial reflect it) with
// the full 2^t subset DP and keeps it if it strictly beats the
// incumbent.
func (w *viWorker) evalLeaf() {
	pNone := 1.0
	for _, d := range w.trial {
		pNone *= w.fail[d]
	}
	if pNone >= 1-1e-15 {
		return // no progress possible; value +Inf cannot beat any incumbent
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
	if v := (1 + sum) / (1 - pNone); v < w.best {
		w.best = v
		w.haveB = true
		copy(w.bestD, w.digits)
	}
}

// place puts machine i, whose success probability there is p, on slot
// d, and returns the slot's previous failure product for unplace.
func (w *viWorker) place(i, d int, p float64) float64 {
	saved := w.fail[d]
	w.fail[d] = saved * (1 - p)
	if w.cnt[d]++; w.cnt[d] == 1 {
		w.pos[d] = int32(len(w.trial))
		w.trial = append(w.trial, int32(d))
	}
	w.digits[i] = int32(d)
	return saved
}

// unplace undoes the latest place on slot d.
func (w *viWorker) unplace(d int, saved float64) {
	if w.cnt[d]--; w.cnt[d] == 0 {
		w.trial = w.trial[:len(w.trial)-1]
	}
	w.fail[d] = saved
}

// bounds fills delta and rest from the successor table at the current
// incumbent. delta[c*k+d] is first the maximum of Δ_d(U) over U ∌ d
// with |U| = c, then a running maximum over c that also counts the
// Δ_d(U) = 0 of every U ∋ d (possible once c ≥ 1).
func (w *viWorker) bounds() {
	k, m := w.k, w.m
	delta := w.delta[:m*k]
	for i := range delta {
		delta[i] = math.Inf(-1)
	}
	w.boundsRec(0, 0, 0)
	for c := 1; c < m; c++ {
		for d := 0; d < k; d++ {
			delta[c*k+d] = max(delta[c*k+d], delta[(c-1)*k+d], 0)
		}
	}
	w.rest[m] = 0
	for i := m - 1; i >= 0; i-- {
		row := w.vs.in.P[i]
		top := math.Inf(-1)
		for d := 0; d < k; d++ {
			top = max(top, row[w.el[d]]*delta[i*k+d])
		}
		w.rest[i] = w.rest[i+1] + top
	}
}

// boundsRec visits every slot set u of size c < min(m, k) once.
func (w *viWorker) boundsRec(start int, u uint32, c int) {
	eu := w.best
	if u != 0 {
		eu = w.getSV(u)
	}
	row := w.delta[c*w.k : (c+1)*w.k]
	for d := 0; d < w.k; d++ {
		if bit := uint32(1) << uint(d); u&bit == 0 {
			row[d] = max(row[d], eu-w.getSV(u|bit))
		}
	}
	if c+1 == w.m || c+1 == w.k {
		return
	}
	for d := start; d < w.k; d++ {
		w.boundsRec(d+1, u|1<<uint(d), c+1)
	}
}

// marginal returns E_U[Δ_d(U)] over the completed-set distribution cur
// of a node with size = 2^len(trial) entries, at the current incumbent.
func (w *viWorker) marginal(d int, cur []float64, size int) float64 {
	bit := uint32(1) << uint(d)
	skip := 0 // U ∋ d contribute Δ_d(U) = 0
	if w.cnt[d] > 0 {
		skip = 1 << uint(w.pos[d])
	}
	sum := cur[0] * (w.best - w.getSV(bit))
	for u := 1; u < size; u++ {
		if u&skip == 0 && cur[u] != 0 {
			sum += cur[u] * (w.getSV(w.umask[u]) - w.getSV(w.umask[u]|bit))
		}
	}
	return sum
}

// descend builds depth i+1's distribution, notDone and gone from depth
// i's for machine i on slot d with success probability p. It runs
// before place, so cnt/pos/trial still describe depth i.
func (w *viWorker) descend(i, d int, p float64) {
	cur, next := w.dist[i], w.dist[i+1]
	size := 1 << uint(len(w.trial))
	if w.cnt[d] == 0 {
		bit := uint32(1) << uint(d)
		for u := 0; u < size; u++ {
			next[u] = cur[u] * (1 - p)
			next[size+u] = cur[u] * p
			w.umask[size+u] = w.umask[u] | bit
		}
		size <<= 1
	} else {
		b := 1 << uint(w.pos[d])
		for u := 0; u < size; u++ {
			if u&b == 0 {
				next[u] = cur[u] * (1 - p)
				next[u|b] = cur[u|b] + cur[u]*p
			}
		}
	}
	gone := 0.0
	for u := 1; u < size; u++ {
		if next[u] != 0 {
			gone += next[u] * w.getSV(w.umask[u])
		}
	}
	w.notDone[i+1] = 1 - next[0]
	w.gone[i+1] = gone
}

// dfs searches machine i's slots in increasing order, cutting each
// child whose gain cannot exceed 1: first by the node's exact gain
// plus the slot's bound, then (at the last machine, and for inner
// nodes once their distribution is built) by the child's exact gain,
// each plus the most the later machines could add.
func (w *viWorker) dfs(i int) {
	k := w.k
	row := w.vs.in.P[i]
	t := len(w.trial)
	bound := w.delta[t*k : (t+1)*k]
	rest := w.rest[i+1]
	cur := w.dist[i]
	last := i == w.m-1
	g := w.best*w.notDone[i] - w.gone[i]
	var pruned, valued int64
	for d, j := range w.el {
		p := row[j]
		if g+p*bound[d]+rest <= gainCut {
			pruned++
			continue
		}
		if last {
			if g+p*w.marginal(d, cur, 1<<uint(t)) <= gainCut {
				pruned++
				continue
			}
			valued++
			saved := w.place(i, d, p)
			w.evalLeaf()
			w.unplace(d, saved)
		} else {
			w.descend(i, d, p)
			if w.best*w.notDone[i+1]-w.gone[i+1]+rest <= gainCut {
				pruned++
				continue
			}
			saved := w.place(i, d, p)
			w.dfs(i + 1)
			w.unplace(d, saved)
		}
		g = w.best*w.notDone[i] - w.gone[i]
	}
	w.pruned += pruned
	w.assignments += valued
}

// begin prepares state si for an assignment search: it fills the
// successor table and values the greedy warm start (each machine on
// its best eligible job, lowest slot on ties), which becomes the first
// incumbent. States the closed forms answer, and states with nothing
// eligible, are finished here and report false.
func (w *viWorker) begin(si int32) bool {
	vs := w.vs
	if bits.OnesCount64(vs.lat.Masks[si]) <= 2 {
		w.solveTerminal(si)
		return false
	}
	elm := vs.lat.Elig[si]
	if elm == 0 {
		// No eligible job (cyclic precedence): permanently stuck.
		vs.value[si] = math.Inf(1)
		return false
	}
	w.el = w.el[:0]
	for e := elm; e != 0; e &= e - 1 {
		w.el = append(w.el, bits.TrailingZeros64(e))
	}
	w.k = len(w.el)
	w.m = vs.in.M
	w.tmax = min(w.m, w.k)
	w.clearSlots()
	w.best = math.Inf(1)
	w.haveB = false

	w.fillSucc(si)

	for i := 0; i < w.m; i++ {
		row := vs.in.P[i]
		bd := 0
		for d := 1; d < w.k; d++ {
			if row[w.el[d]] > row[w.el[bd]] {
				bd = d
			}
		}
		w.place(i, bd, row[w.el[bd]])
	}
	w.evalLeaf()
	w.clearSlots()
	return true
}

// clearSlots leaves every slot of the current state untrialed.
func (w *viWorker) clearSlots() {
	for d := 0; d < w.k; d++ {
		w.fail[d] = 1
		w.cnt[d] = 0
	}
	w.trial = w.trial[:0]
}

// finish stores the incumbent as state si's value and assignment.
func (w *viWorker) finish(si int32) {
	w.vs.value[si] = w.best
	if w.haveB {
		a := make(sched.Assignment, w.m)
		for i := 0; i < w.m; i++ {
			a[i] = w.el[w.bestD[i]]
		}
		w.vs.assigns[si] = a
	}
}

// solveState computes the optimal value and assignment of one state.
// The greedy warm start minimizes P(∅), so if it makes no progress (or
// leads only to infinite values) neither does any other assignment,
// and the state keeps +Inf without a search.
func (w *viWorker) solveState(si int32) {
	if !w.begin(si) {
		return
	}
	if !math.IsInf(w.best, 1) {
		w.bounds()
		w.dist[0][0] = 1
		w.notDone[0], w.gone[0] = 0, 0
		w.umask[0] = 0
		w.dfs(0)
	}
	w.finish(si)
}

// solveTerminal applies the ≤2-unfinished closed forms: a single
// unfinished job is ganged by every machine (E = 1/q), and a pair is
// either a chain (gang the head, then the tail's 1-job form) or an
// antichain solved over the 2^m machine splits with the two-job
// formula.
func (w *viWorker) solveTerminal(si int32) {
	vs := w.vs
	in := vs.in
	s := vs.lat.Masks[si]
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
		elm := vs.lat.Elig[si]
		if bits.OnesCount64(elm) == 1 {
			// Chain: only the head is eligible; gang it, then the
			// remaining single job.
			head := bits.TrailingZeros64(elm)
			fail := 1.0
			for i := 0; i < m; i++ {
				fail *= 1 - in.P[i][head]
			}
			if fail >= 1-1e-15 {
				vs.value[si] = math.Inf(1)
				return
			}
			q := 1 - fail
			vs.value[si] = (1 + q*vs.value[vs.lat.Without(si, head)]) / q
			as := make(sched.Assignment, m)
			for i := range as {
				as[i] = head
			}
			vs.assigns[si] = as
			return
		}
		// Antichain pair: enumerate the 2^m splits of machines onto
		// {a, b}; bit i of msk sends machine i to b.
		va := vs.value[vs.lat.Without(si, b)] // b done, a remains
		vb := vs.value[vs.lat.Without(si, a)] // a done, b remains
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
	vs, st, err := solveLattice(in, workers)
	if err != nil {
		return nil, 0, nil, err
	}
	reg, v := vs.regimen()
	return reg, v, st, nil
}

// solveLattice enumerates in's closed states and solves them layer by
// layer on a pool of workers.
func solveLattice(in *model.Instance, workers int) (*viSolver, *Stats, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	lat, err := lattice(in)
	if err != nil {
		return nil, nil, err
	}
	if need := powCap(lat.MaxK, in.M, MaxAssignmentsPerState); need > MaxAssignmentsPerState {
		return nil, nil, &TooLargeError{
			N: in.N, M: in.M, States: len(lat.Masks),
			Eligible: lat.MaxK, Need: need, Limit: "assignments",
		}
	}
	ns := len(lat.Masks)
	vs := &viSolver{
		in:      in,
		lat:     lat,
		value:   make([]float64, ns),
		assigns: make([]sched.Assignment, ns),
	}
	workers = max(1, min(workers, ns))
	ws := make([]*viWorker, workers)
	for i := range ws {
		ws[i] = newVIWorker(vs)
	}
	st := &Stats{States: ns, MaxEligible: lat.MaxK, Workers: workers}
	for c := 1; c <= in.N; c++ {
		lo, hi := lat.LayerOff[c], lat.LayerOff[c+1]
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
	return vs, st, nil
}

// regimen returns the solved assignments as a regimen, and the value
// of the all-unfinished state.
func (vs *viSolver) regimen() (*sched.Regimen, float64) {
	masks := vs.lat.Masks
	reg := sched.NewRegimen(vs.in.N, vs.in.M)
	for i := 1; i < len(masks); i++ {
		reg.F[masks[i]] = vs.assigns[i]
	}
	return reg, vs.value[len(masks)-1]
}
