package lp

import (
	"errors"
	"math"
	"slices"
	"sync"
)

// This file implements the sparse revised simplex. The constraint
// matrix is stored once in compressed-sparse-column form; every row k
// gets a logical variable s_k with bounds encoding its relation
// (a·x + s = b with s ≥ 0 for ≤, s ≤ 0 for ≥, s = 0 for =), so the
// initial all-logical basis is the identity. The basis inverse is
// kept in product form — an eta file, one sparse eta per pivot,
// refactorized from scratch every refactorEvery pivots — which makes
// the cost of a pivot O(nnz of the touched columns + eta file)
// instead of the dense tableau's O(rows · cols).
//
// Variable bounds l ≤ x ≤ u are handled natively: nonbasic variables
// rest at a bound, the ratio test blocks on both bounds of every
// basic variable, and a step may end in a bound flip (the entering
// variable crosses to its other bound without any basis change).
//
// Feasibility and optimality run as one loop: while any basic
// variable violates a bound, pricing uses the gradient of the total
// infeasibility (the textbook composite phase 1, which needs no
// artificial variables); once feasible, pricing switches to the true
// costs. Dantzig pricing is the default with Bland's rule engaged
// after stallLim non-improving pivots, mirroring the dense solver's
// anti-cycling strategy. Linearly dependent (redundant) rows are
// harmless here: their logicals simply stay basic at value zero.

type vstat uint8

const (
	atLower vstat = iota
	atUpper
	isFree // nonbasic free variable resting at 0
	inBasis
)

const (
	tolPivot      = 1e-9  // smallest usable ratio-test pivot
	tolDJ         = 1e-9  // reduced-cost optimality tolerance
	tolFeas       = 1e-7  // per-variable bound-violation tolerance
	tolEta        = 1e-12 // entries below this are dropped from etas
	tolSingular   = 1e-10 // refactorization pivot threshold
	refactorEvery = 64    // pivots between refactorizations
	maxIters      = 500000
)

// eta is one elementary transformation of the product-form inverse,
// with its nonzeros in the solver's shared arena
// (etaIdx/etaVal[start:end]), so appending an eta costs at most one
// amortized arena growth instead of two allocations. Two kinds exist:
//
//   - kCol (a pivot): v[i] -= val_i · (v[row]/pivot) for the stored
//     rows i, then v[row] /= pivot — the classic product-form column
//     eta.
//   - kRow (a lazily appended constraint row): v[row] -= Σ val_i ·
//     v[idx_i]. Appending rows whose logicals enter the basis makes
//     the new basis lower-block-triangular over the old one,
//     [[B,0],[C,I]], whose inverse is the old factorization followed
//     by exactly this correction — so lazy cuts join the factorization
//     with no refactorization at all.
type eta struct {
	row        int32
	start, end int32
	kind       uint8
	pivot      float64 // w[row] (kCol only)
}

const (
	kCol uint8 = iota
	kRow
)

type revised struct {
	m, n  int // rows, structural variables
	total int // n + m (logicals appended)

	// Structural columns in CSC form (duplicates accumulated). Rows
	// appended after construction (lazy cuts) extend columns via the
	// extIdx/extVal overflow lists, so the packed arrays never rebuild.
	colPtr []int32
	rowIdx []int32
	colVal []float64
	extIdx [][]int32
	extVal [][]float64
	nnz    int

	b      []float64 // row right-hand sides
	c      []float64 // structural costs
	lo, up []float64 // bounds, length total
	fixed  []bool    // lo == up (EQ logicals); never enter

	status []vstat
	basic  []int     // basic[r] = variable basic at row r
	xB     []float64 // values of the basic variables, by row

	etas   []eta
	etaIdx []int32   // shared eta arena: row indices
	etaVal []float64 // shared eta arena: values
	pivots int       // pivots since the last refactorization
	iters  int

	// cand is the multiple-pricing candidate list: the best columns of
	// the last full Dantzig scan. Between full scans only these are
	// re-priced (their reduced costs change with every pivot, so they
	// are recomputed, merely not re-discovered). A full scan refills
	// the list when no candidate is eligible — which is also the exact
	// optimality test. candPhase1 invalidates the list across phase
	// switches.
	cand       []int32
	candPhase1 bool

	// Scratch vectors, length m. w is maintained sparsely: wNZ lists
	// the rows that may be nonzero and wMark flags them, so clearing
	// and scanning cost O(fill), not O(m).
	w     []float64 // FTRANed entering column
	wNZ   []int32
	wMark []bool
	y     []float64 // BTRANed pricing multipliers
	cB    []float64 // basic cost vector of the active phase
	gB    []float64 // infeasibility gradient (−1 below, +1 above, 0 inside)

	// Scratch of single calls: buildColumns' counters (count, ptr,
	// next), adoptBasis' seen flags, appendRows' basis positions,
	// appendRow's merged terms, refactor's assigned rows, new basis and
	// structural columns, and the x handed to a separation callback.
	count, ptr, next []int32
	seen             []bool
	posRow           []int32
	terms            []Term
	assigned         []bool
	newBasic         []int
	structural       []int
	sepX             []float64
}

// revisedPool holds solvers between solves. A solve takes one, loads
// its problem into the arrays the solver already owns (growing them
// only when the problem is larger than any it solved before), and
// returns it once the Solution is copied out; nothing returned to a
// caller aliases a pooled array. A run of small solves — a rolling
// re-plan's sub-LPs — so allocates little beyond its solutions.
var revisedPool = sync.Pool{New: func() any { return new(revised) }}

// resize returns s resliced to length n with every element zeroed,
// reusing its backing array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// load resets the solver for p. Every field is reset: the struct is
// rebuilt from scratch and keeps only the backing arrays of its
// slices, each resliced and cleared, so what an earlier solve left
// behind cannot reach this one.
func (rv *revised) load(p *Problem) {
	m, n := len(p.cons), p.nvars
	total := n + m
	*rv = revised{
		m: m, n: n, total: total,
		colPtr: rv.colPtr, rowIdx: rv.rowIdx, colVal: rv.colVal,
		extIdx: resetLists(rv.extIdx, n),
		extVal: resetLists(rv.extVal, n),
		b:      resize(rv.b, m),
		c:      append(rv.c[:0], p.c...),
		lo:     resize(rv.lo, total),
		up:     resize(rv.up, total),
		fixed:  resize(rv.fixed, total),
		status: resize(rv.status, total),
		basic:  resize(rv.basic, m),
		xB:     resize(rv.xB, m),
		etas:   rv.etas[:0],
		etaIdx: rv.etaIdx[:0],
		etaVal: rv.etaVal[:0],
		cand:   rv.cand[:0],
		w:      resize(rv.w, m),
		wNZ:    rv.wNZ[:0],
		wMark:  resize(rv.wMark, m),
		y:      resize(rv.y, m),
		cB:     resize(rv.cB, m),
		gB:     resize(rv.gB, m),

		count: rv.count, ptr: rv.ptr, next: rv.next,
		seen: rv.seen, posRow: rv.posRow, terms: rv.terms[:0],
		assigned: rv.assigned, newBasic: rv.newBasic, structural: rv.structural[:0],
		sepX: rv.sepX,
	}
	rv.buildColumns(p)
	for k, con := range p.cons {
		rv.b[k] = con.rhs
	}
	for j := 0; j < rv.n; j++ {
		rv.lo[j], rv.up[j] = p.lower(j), p.upper(j)
	}
	for k, con := range p.cons {
		j := rv.n + k
		switch con.rel {
		case LE:
			rv.lo[j], rv.up[j] = 0, math.Inf(1)
		case GE:
			rv.lo[j], rv.up[j] = math.Inf(-1), 0
		case EQ:
			rv.lo[j], rv.up[j] = 0, 0
		}
	}
	for j := range rv.fixed {
		rv.fixed[j] = rv.lo[j] == rv.up[j]
	}
}

// resetLists reslices a per-column overflow table to n empty lists,
// keeping every list's backing array.
func resetLists[T any](lists [][]T, n int) [][]T {
	if cap(lists) < n {
		return make([][]T, n)
	}
	lists = lists[:n]
	for j := range lists {
		lists[j] = lists[j][:0]
	}
	return lists
}

// appendRows extends the solver state with a batch of constraint rows
// whose logical variables enter the basis. Each new row gets a kRow
// correction eta linking it to the rows of its basic variables (the C
// block of the lower-block-triangular extension), so the existing
// factorization stays valid and the new logicals' values are computed
// directly — no refactorization, no x_B recomputation. A logical that
// lands outside its bounds (a violated cut) is repaired by phase 1 on
// the next iterations.
func (rv *revised) appendRows(cons []constraint) {
	rv.posRow = resize(rv.posRow, rv.total)
	posRow := rv.posRow
	for i := range posRow {
		posRow[i] = -1
	}
	for r, j := range rv.basic {
		posRow[j] = int32(r)
	}
	for _, con := range cons {
		rv.appendRow(con, posRow)
	}
}

func (rv *revised) appendRow(con constraint, posRow []int32) {
	r := int32(rv.m)
	rv.m++
	rv.total++
	// Merge duplicate variables within the row (rows are short here).
	terms := rv.terms[:0]
outer:
	for _, tm := range con.terms {
		for i := range terms {
			if terms[i].Var == tm.Var {
				terms[i].Coef += tm.Coef
				continue outer
			}
		}
		terms = append(terms, tm)
	}
	rv.terms = terms
	s := con.rhs // the new logical's value: rhs − a·x
	start := int32(len(rv.etaIdx))
	for _, tm := range terms {
		if tm.Coef == 0 {
			continue
		}
		rv.extIdx[tm.Var] = append(rv.extIdx[tm.Var], r)
		rv.extVal[tm.Var] = append(rv.extVal[tm.Var], tm.Coef)
		rv.nnz++
		if rho := posRow[tm.Var]; rho >= 0 {
			rv.etaIdx = append(rv.etaIdx, rho)
			rv.etaVal = append(rv.etaVal, tm.Coef)
			s -= tm.Coef * rv.xB[rho]
		} else if rv.status[tm.Var] != inBasis {
			s -= tm.Coef * rv.nbValue(tm.Var)
		}
	}
	if end := int32(len(rv.etaIdx)); end > start {
		rv.etas = append(rv.etas, eta{row: r, start: start, end: end, kind: kRow})
	}
	rv.b = append(rv.b, con.rhs)
	var lo, up float64
	switch con.rel {
	case LE:
		lo, up = 0, math.Inf(1)
	case GE:
		lo, up = math.Inf(-1), 0
	case EQ:
		lo, up = 0, 0
	}
	rv.lo = append(rv.lo, lo)
	rv.up = append(rv.up, up)
	rv.fixed = append(rv.fixed, lo == up)
	rv.status = append(rv.status, inBasis)
	rv.basic = append(rv.basic, rv.total-1)
	rv.xB = append(rv.xB, s)
	rv.w = append(rv.w, 0)
	rv.wMark = append(rv.wMark, false)
	rv.y = append(rv.y, 0)
	rv.cB = append(rv.cB, 0)
	rv.gB = append(rv.gB, 0)
}

// buildColumns converts the row-wise constraint terms into CSC form
// in two counted passes (no per-column append churn), accumulating
// duplicate variables within a row — duplicates land adjacently per
// column because rows are scanned in order — and dropping entries
// that cancel to exact zero.
func (rv *revised) buildColumns(p *Problem) {
	n := p.nvars
	rv.count = resize(rv.count, n)
	count := rv.count
	for _, con := range p.cons {
		for _, tm := range con.terms {
			count[tm.Var]++
		}
	}
	rv.ptr = resize(rv.ptr, n+1)
	ptr := rv.ptr
	for j := 0; j < n; j++ {
		ptr[j+1] = ptr[j] + count[j]
	}
	rowIdx := resize(rv.rowIdx, int(ptr[n]))
	colVal := resize(rv.colVal, int(ptr[n]))
	rv.next = resize(rv.next, n)
	next := rv.next
	copy(next, ptr[:n])
	for k, con := range p.cons {
		for _, tm := range con.terms {
			v := tm.Var
			if next[v] > ptr[v] && rowIdx[next[v]-1] == int32(k) {
				colVal[next[v]-1] += tm.Coef
				continue
			}
			rowIdx[next[v]] = int32(k)
			colVal[next[v]] = tm.Coef
			next[v]++
		}
	}
	rv.colPtr = resize(rv.colPtr, n+1)
	at := int32(0)
	for j := 0; j < n; j++ {
		rv.colPtr[j] = at
		for k := ptr[j]; k < next[j]; k++ {
			if colVal[k] != 0 {
				rowIdx[at] = rowIdx[k]
				colVal[at] = colVal[k]
				at++
			}
		}
	}
	rv.colPtr[n] = at
	rv.rowIdx = rowIdx[:at]
	rv.colVal = colVal[:at]
	rv.nnz = int(at)
}

// colNnz returns the stored nonzero count of a column.
func (rv *revised) colNnz(j int) int {
	if j >= rv.n {
		return 1
	}
	return int(rv.colPtr[j+1]-rv.colPtr[j]) + len(rv.extIdx[j])
}

// cost returns the phase-2 cost of variable j.
func (rv *revised) cost(j int) float64 {
	if j < rv.n {
		return rv.c[j]
	}
	return 0
}

// nbValue returns the resting value of nonbasic variable j.
func (rv *revised) nbValue(j int) float64 {
	switch rv.status[j] {
	case atLower:
		return rv.lo[j]
	case atUpper:
		return rv.up[j]
	}
	return 0
}

// ftran applies the eta file in order: v ← B⁻¹ v.
func (rv *revised) ftran(v []float64) {
	for k := range rv.etas {
		e := &rv.etas[k]
		if e.kind == kRow {
			s := v[e.row]
			for i := e.start; i < e.end; i++ {
				s -= rv.etaVal[i] * v[rv.etaIdx[i]]
			}
			v[e.row] = s
			continue
		}
		vr := v[e.row]
		if vr == 0 {
			continue
		}
		t := vr / e.pivot
		for i := e.start; i < e.end; i++ {
			v[rv.etaIdx[i]] -= rv.etaVal[i] * t
		}
		v[e.row] = t
	}
}

// clearW resets the sparse scratch column.
func (rv *revised) clearW() {
	for _, r := range rv.wNZ {
		rv.w[r] = 0
		rv.wMark[r] = false
	}
	rv.wNZ = rv.wNZ[:0]
}

// loadW scatters column j into the sparse scratch column and FTRANs
// it, tracking the fill pattern so later passes cost O(fill) instead
// of O(m). Cancellations may leave exact zeros in the pattern; they
// are harmless.
func (rv *revised) loadW(j int) {
	rv.clearW()
	touch := func(r int32) {
		if !rv.wMark[r] {
			rv.wMark[r] = true
			rv.wNZ = append(rv.wNZ, r)
		}
	}
	if j >= rv.n {
		r := int32(j - rv.n)
		touch(r)
		rv.w[r] += 1
	} else {
		for k := rv.colPtr[j]; k < rv.colPtr[j+1]; k++ {
			touch(rv.rowIdx[k])
			rv.w[rv.rowIdx[k]] += rv.colVal[k]
		}
		for k, ri := range rv.extIdx[j] {
			touch(ri)
			rv.w[ri] += rv.extVal[j][k]
		}
	}
	for k := range rv.etas {
		e := &rv.etas[k]
		if e.kind == kRow {
			s := rv.w[e.row]
			changed := false
			for i := e.start; i < e.end; i++ {
				if wv := rv.w[rv.etaIdx[i]]; wv != 0 {
					s -= rv.etaVal[i] * wv
					changed = true
				}
			}
			if changed {
				touch(e.row)
				rv.w[e.row] = s
			}
			continue
		}
		vr := rv.w[e.row]
		if vr == 0 {
			continue
		}
		t := vr / e.pivot
		for i := e.start; i < e.end; i++ {
			ri := rv.etaIdx[i]
			touch(ri)
			rv.w[ri] -= rv.etaVal[i] * t
		}
		rv.w[e.row] = t
	}
}

// btran applies the transposed eta file in reverse: y ← (B⁻¹)ᵀ y.
func (rv *revised) btran(y []float64) {
	for k := len(rv.etas) - 1; k >= 0; k-- {
		e := &rv.etas[k]
		if e.kind == kRow {
			yr := y[e.row]
			if yr != 0 {
				for i := e.start; i < e.end; i++ {
					y[rv.etaIdx[i]] -= rv.etaVal[i] * yr
				}
			}
			continue
		}
		t := y[e.row]
		for i := e.start; i < e.end; i++ {
			t -= rv.etaVal[i] * y[rv.etaIdx[i]]
		}
		y[e.row] = t / e.pivot
	}
}

// appendEta records the pivot of the sparse scratch column at row r,
// writing the off-diagonal fill into the shared arena. Identity etas
// (unit pivot, no fill) are skipped.
func (rv *revised) appendEta(r int) {
	start := int32(len(rv.etaIdx))
	for _, i := range rv.wNZ {
		if int(i) == r {
			continue
		}
		if v := rv.w[i]; v > tolEta || v < -tolEta {
			rv.etaIdx = append(rv.etaIdx, i)
			rv.etaVal = append(rv.etaVal, v)
		}
	}
	end := int32(len(rv.etaIdx))
	piv := rv.w[r]
	if start == end && piv == 1 {
		return
	}
	rv.etas = append(rv.etas, eta{row: int32(r), start: start, end: end, pivot: piv})
}

// defaultNonbasic rests variable j at its natural nonbasic position.
func (rv *revised) defaultNonbasic(j int) {
	switch {
	case !math.IsInf(rv.lo[j], -1):
		rv.status[j] = atLower
	case !math.IsInf(rv.up[j], 1):
		rv.status[j] = atUpper
	default:
		rv.status[j] = isFree
	}
}

// resetLogical installs the all-logical (identity) basis.
func (rv *revised) resetLogical() {
	for j := 0; j < rv.n; j++ {
		rv.defaultNonbasic(j)
	}
	for k := 0; k < rv.m; k++ {
		rv.basic[k] = rv.n + k
		rv.status[rv.n+k] = inBasis
	}
	rv.etas = rv.etas[:0]
	rv.etaIdx = rv.etaIdx[:0]
	rv.etaVal = rv.etaVal[:0]
	rv.pivots = 0
}

// adoptBasis installs a caller-supplied basis; false if it is
// malformed (wrong size, out-of-range or duplicate entries).
func (rv *revised) adoptBasis(b *Basis) bool {
	if len(b.Basic) != rv.m {
		return false
	}
	rv.seen = resize(rv.seen, rv.total)
	seen := rv.seen
	for _, j := range b.Basic {
		if j < 0 || j >= rv.total || seen[j] {
			return false
		}
		seen[j] = true
	}
	for j := 0; j < rv.total; j++ {
		rv.defaultNonbasic(j)
	}
	for k, j := range b.Basic {
		rv.basic[k] = j
		rv.status[j] = inBasis
	}
	for _, j := range b.AtUpper {
		if j < 0 || j >= rv.total || rv.status[j] == inBasis || math.IsInf(rv.up[j], 1) {
			continue
		}
		rv.status[j] = atUpper
	}
	rv.etas = rv.etas[:0]
	rv.etaIdx = rv.etaIdx[:0]
	rv.etaVal = rv.etaVal[:0]
	rv.pivots = 0
	return true
}

// refactor rebuilds the eta file for the current basis from scratch
// (sparse Gaussian elimination with pivot choice by magnitude among
// unassigned rows, columns processed in ascending density). Basic
// logical variables go first: with no etas built yet their unit
// columns pass through unchanged and need no eta at all, so the cost
// of a refactorization is proportional to the structural part of the
// basis — in the SUU LPs the overwhelmingly basic window-row logicals
// are free. Returns false if the basis is numerically singular.
func (rv *revised) refactor() bool {
	rv.etas = rv.etas[:0]
	rv.etaIdx = rv.etaIdx[:0]
	rv.etaVal = rv.etaVal[:0]
	rv.pivots = 0
	rv.assigned = resize(rv.assigned, rv.m)
	rv.newBasic = resize(rv.newBasic, rv.m)
	assigned, newBasic := rv.assigned, rv.newBasic
	structural := rv.structural[:0]
	for _, v := range rv.basic {
		if v >= rv.n {
			// Unit column through an empty eta file: assign its own row.
			r := v - rv.n
			assigned[r] = true
			newBasic[r] = v
		} else {
			structural = append(structural, v)
		}
	}
	rv.structural = structural
	// Sort keys are cheap (colNnz is two array reads), so sorting by
	// density directly beats materializing a weight array. The keys are
	// unique (ties go to the lower index), so any sort gives one order.
	slices.SortFunc(structural, func(a, b int) int {
		if wa, wb := rv.colNnz(a), rv.colNnz(b); wa != wb {
			return wa - wb
		}
		return a - b
	})
	for _, v := range structural {
		rv.loadW(v)
		best, bestAbs := -1, tolSingular
		for _, r := range rv.wNZ {
			if assigned[r] {
				continue
			}
			if a := math.Abs(rv.w[r]); a > bestAbs {
				best, bestAbs = int(r), a
			}
		}
		if best < 0 {
			return false
		}
		rv.appendEta(best)
		assigned[best] = true
		newBasic[best] = v
	}
	copy(rv.basic, newBasic)
	return true
}

// computeXB recomputes the basic values from scratch:
// x_B = B⁻¹ (b − Σ_{nonbasic j} A_j · value_j).
func (rv *revised) computeXB() {
	rhs := rv.xB
	copy(rhs, rv.b)
	for j := 0; j < rv.total; j++ {
		if rv.status[j] == inBasis {
			continue
		}
		v := rv.nbValue(j)
		if v == 0 {
			continue
		}
		if j >= rv.n {
			rhs[j-rv.n] -= v
			continue
		}
		for k := rv.colPtr[j]; k < rv.colPtr[j+1]; k++ {
			rhs[rv.rowIdx[k]] -= rv.colVal[k] * v
		}
		for k, ri := range rv.extIdx[j] {
			rhs[ri] -= rv.extVal[j][k] * v
		}
	}
	rv.ftran(rhs)
}

// refresh refactorizes (falling back to the identity basis if the
// current one has gone singular) and recomputes the basic values.
func (rv *revised) refresh() {
	if !rv.refactor() {
		rv.resetLogical()
	}
	rv.computeXB()
}

// start installs the warm-start basis if one is given and valid, else
// the all-logical basis.
func (rv *revised) start(b *Basis) error {
	if b != nil && rv.adoptBasis(b) && rv.refactor() {
		rv.computeXB()
		return nil
	}
	rv.resetLogical()
	rv.computeXB()
	return nil
}

// infeasibility fills the gradient gB and returns the total bound
// violation of the basic variables.
func (rv *revised) infeasibility() float64 {
	sum := 0.0
	for r := 0; r < rv.m; r++ {
		j := rv.basic[r]
		v := rv.xB[r]
		switch {
		case v < rv.lo[j]-tolFeas:
			rv.gB[r] = -1
			sum += rv.lo[j] - v
		case v > rv.up[j]+tolFeas:
			rv.gB[r] = 1
			sum += v - rv.up[j]
		default:
			rv.gB[r] = 0
		}
	}
	return sum
}

// priceOne returns variable j's reduced cost under the active phase's
// multipliers and whether j is eligible to enter. The dot product is
// written out inline: pricing is the hottest code in the solver.
func (rv *revised) priceOne(j int, phase1 bool) (float64, bool) {
	st := rv.status[j]
	if st == inBasis || rv.fixed[j] {
		return 0, false
	}
	y := rv.y
	var d float64
	if j >= rv.n {
		d = -y[j-rv.n] // logicals cost 0 in both phases
	} else {
		s := 0.0
		for k := rv.colPtr[j]; k < rv.colPtr[j+1]; k++ {
			s += rv.colVal[k] * y[rv.rowIdx[k]]
		}
		if ext := rv.extIdx[j]; len(ext) > 0 {
			ev := rv.extVal[j]
			for k, ri := range ext {
				s += ev[k] * y[ri]
			}
		}
		d = -s
		if !phase1 {
			d += rv.c[j]
		}
	}
	switch st {
	case atLower:
		return d, d < -tolDJ
	case atUpper:
		return d, d > tolDJ
	default: // isFree
		return d, d < -tolDJ || d > tolDJ
	}
}

// maxCand bounds the multiple-pricing candidate list: larger problems
// carry more candidates so the expensive full scans stay rare, at a
// mild cost in pivot-choice freshness.
const maxCandCap = 128

func (rv *revised) maxCand() int {
	k := 8 + rv.total/32
	if k > maxCandCap {
		k = maxCandCap
	}
	return k
}

// price returns the entering candidate: the best column of the
// candidate list under Dantzig pricing, refilled by a full scan when
// the list has no eligible column (the full scan that finds nothing
// is the exact optimality test), or the lowest-index eligible column
// under Bland's rule. Returns -1 when priced optimal.
func (rv *revised) price(phase1, bland bool) (int, float64) {
	if bland {
		for j := 0; j < rv.total; j++ {
			if d, ok := rv.priceOne(j, phase1); ok {
				return j, d
			}
		}
		return -1, 0
	}
	K := rv.maxCand()
	if rv.candPhase1 == phase1 {
		// Use the list until it is exhausted: the sized-by-total list
		// stays fresh enough that chasing survivors costs far fewer
		// pivots than per-pivot full scans cost time.
		enter, bestAbs, bestD := -1, tolDJ, 0.0
		for _, j32 := range rv.cand {
			j := int(j32)
			d, ok := rv.priceOne(j, phase1)
			if !ok {
				continue
			}
			if a := math.Abs(d); a > bestAbs {
				enter, bestAbs, bestD = j, a, d
			}
		}
		if enter >= 0 {
			return enter, bestD
		}
	}
	// Full scan: refill the candidate list with the top columns.
	rv.cand = rv.cand[:0]
	rv.candPhase1 = phase1
	var vals [maxCandCap]float64
	var idxs [maxCandCap]int32
	count := 0
	worst := 0 // position of the smallest |d| in the filled list
	for j := 0; j < rv.total; j++ {
		d, ok := rv.priceOne(j, phase1)
		if !ok {
			continue
		}
		a := math.Abs(d)
		if count < K {
			vals[count], idxs[count] = a, int32(j)
			if count > 0 && a < vals[worst] {
				worst = count
			}
			count++
			continue
		}
		if a <= vals[worst] {
			continue
		}
		vals[worst], idxs[worst] = a, int32(j)
		worst = 0
		for k := 1; k < K; k++ {
			if vals[k] < vals[worst] {
				worst = k
			}
		}
	}
	if count == 0 {
		return -1, 0
	}
	best := 0
	for k := 1; k < count; k++ {
		if vals[k] > vals[best] {
			best = k
		}
	}
	rv.cand = append(rv.cand, idxs[:count]...)
	d, _ := rv.priceOne(int(idxs[best]), phase1)
	return int(idxs[best]), d
}

// ratioTest finds the largest step t for the entering variable moving
// in direction sigma. Returns the blocking row (-1 for a bound flip
// of the entering variable itself) and whether the variable leaving —
// or, for a flip, the entering variable — lands at its upper bound.
// t is +Inf when nothing blocks.
func (rv *revised) ratioTest(enter int, sigma float64, bland bool) (t float64, leaveRow int, toUpper bool) {
	const tie = 1e-9
	t = math.Inf(1)
	leaveRow = -1
	cur := rv.nbValue(enter)
	if sigma > 0 {
		if u := rv.up[enter]; !math.IsInf(u, 1) {
			t, toUpper = u-cur, true
		}
	} else {
		if l := rv.lo[enter]; !math.IsInf(l, -1) {
			t, toUpper = cur-l, false
		}
	}
	bestPiv := 0.0
	for _, r32 := range rv.wNZ {
		r := int(r32)
		wr := rv.w[r]
		if wr > -tolPivot && wr < tolPivot {
			continue
		}
		delta := sigma * wr // x_B[r] changes at rate −delta per unit step
		j := rv.basic[r]
		xb, l, u := rv.xB[r], rv.lo[j], rv.up[j]
		var tr float64
		var dest bool
		switch {
		case xb < l-tolFeas:
			// Infeasible below its lower bound: blocks only while
			// climbing back to it (crossing would flip its phase-1 cost).
			if delta >= 0 {
				continue
			}
			tr, dest = (l-xb)/-delta, false
		case xb > u+tolFeas:
			if delta <= 0 {
				continue
			}
			tr, dest = (xb-u)/delta, true
		case delta > 0:
			if math.IsInf(l, -1) {
				continue
			}
			tr, dest = (xb-l)/delta, false
		default:
			if math.IsInf(u, 1) {
				continue
			}
			tr, dest = (u-xb)/-delta, true
		}
		if tr < 0 {
			tr = 0 // numerical drift just past a bound: degenerate step
		}
		abs := math.Abs(wr)
		switch {
		case tr < t-tie:
			t, leaveRow, toUpper, bestPiv = tr, r, dest, abs
		case tr < t+tie && leaveRow >= 0:
			// Tie between rows: Bland breaks by lowest basic variable
			// index (anti-cycling); Dantzig by largest pivot (stability).
			if bland {
				if j < rv.basic[leaveRow] {
					leaveRow, toUpper, bestPiv = r, dest, abs
				}
			} else if abs > bestPiv {
				leaveRow, toUpper, bestPiv = r, dest, abs
			}
			// A row tying with the entering variable's own bound flip
			// (leaveRow still -1) loses to the flip: flips are cheaper
			// and strictly improving (the flip span is positive).
		}
	}
	return t, leaveRow, toUpper
}

// applyStep moves the entering variable by sigma·t and performs the
// basis change (or bound flip) chosen by the ratio test.
func (rv *revised) applyStep(enter int, sigma, t float64, leaveRow int, toUpper bool) {
	w := rv.w
	if leaveRow < 0 {
		if t != 0 {
			for _, r := range rv.wNZ {
				if w[r] != 0 {
					rv.xB[r] -= sigma * t * w[r]
				}
			}
		}
		if toUpper {
			rv.status[enter] = atUpper
		} else {
			rv.status[enter] = atLower
		}
		return
	}
	xq := rv.nbValue(enter) + sigma*t
	for _, r := range rv.wNZ {
		if int(r) == leaveRow || w[r] == 0 {
			continue
		}
		rv.xB[r] -= sigma * t * w[r]
	}
	leaving := rv.basic[leaveRow]
	if toUpper {
		rv.status[leaving] = atUpper
	} else {
		rv.status[leaving] = atLower
	}
	rv.basic[leaveRow] = enter
	rv.status[enter] = inBasis
	rv.xB[leaveRow] = xq
	rv.appendEta(leaveRow)
	rv.pivots++
}

// run iterates the composite simplex to optimality, ErrInfeasible, or
// ErrUnbounded.
func (rv *revised) run() error {
	stall := 0
	bland := false
	prevPhase1 := false
	checkFeas := true
	for {
		rv.iters++
		if rv.iters > maxIters {
			return errors.New("lp: iteration limit exceeded")
		}
		if rv.pivots >= refactorEvery || len(rv.etaIdx) > 8*rv.m+256 {
			rv.refresh()
			checkFeas = true
		}
		// In steady-state phase 2 the ratio test keeps every basic
		// variable within bounds, so the O(m) feasibility scan runs only
		// while infeasible, right after a recomputation of x_B, or as
		// the final verification before declaring optimality below.
		phase1 := false
		if checkFeas || prevPhase1 {
			phase1 = rv.infeasibility() > 0
			checkFeas = false
		}
		if phase1 != prevPhase1 {
			stall, bland = 0, false
			prevPhase1 = phase1
		}
		for r := 0; r < rv.m; r++ {
			if phase1 {
				rv.cB[r] = rv.gB[r]
			} else {
				rv.cB[r] = rv.cost(rv.basic[r])
			}
		}
		copy(rv.y, rv.cB)
		rv.btran(rv.y)
		enter, dj := rv.price(phase1, bland)
		if enter < 0 {
			if phase1 {
				return ErrInfeasible
			}
			if rv.infeasibility() > 0 {
				// Numerical drift re-opened a bound violation since the
				// last scan: clean up and re-enter phase 1.
				rv.refresh()
				checkFeas = true
				stall, bland = 0, false
				continue
			}
			return nil // optimal
		}
		sigma := 1.0
		if st := rv.status[enter]; st == atUpper || (st == isFree && dj > 0) {
			sigma = -1
		}
		rv.loadW(enter)
		t, leaveRow, toUpper := rv.ratioTest(enter, sigma, bland)
		if math.IsInf(t, 1) {
			if phase1 {
				// The infeasibility is bounded below by zero and strictly
				// decreasing along the ray; no block is a numerical failure.
				return errors.New("lp: phase-1 ray (numerical failure)")
			}
			return ErrUnbounded
		}
		rv.applyStep(enter, sigma, t, leaveRow, toUpper)
		if math.Abs(dj)*t > 1e-12 {
			stall, bland = 0, false
		} else if stall++; stall >= stallLim {
			bland = true
		}
	}
}

// currentX reads the structural solution off the current basis state
// into x, which has length n, and returns it.
func (rv *revised) currentX(x []float64) []float64 {
	for j := 0; j < rv.n; j++ {
		if rv.status[j] != inBasis {
			x[j] = rv.nbValue(j)
		}
	}
	for r, j := range rv.basic {
		if j < rv.n {
			x[j] = rv.xB[r]
		}
	}
	return x
}

// solution extracts the optimum after run() returned nil.
func (rv *revised) solution(p *Problem) (*Solution, error) {
	// Tighten the numerics once before extraction: a fresh
	// factorization removes the eta file's accumulated drift. Short
	// runs since the last refactorization carry ~1e-13 of drift, so
	// small solves skip the extra factorization. A refactorization
	// failure here must NOT fall back to the identity basis (run() is
	// over — nothing would re-solve); the current factorization is
	// still consistent, so extract from it as-is.
	if rv.pivots >= refactorEvery/2 && rv.refactor() {
		rv.computeXB()
	}
	x := rv.currentX(make([]float64, rv.n))
	obj := 0.0
	for j := 0; j < rv.n; j++ {
		obj += rv.c[j] * x[j]
	}
	// The returned slices are fresh copies: the solver's arrays go back
	// to the pool.
	basis := &Basis{Basic: append([]int(nil), rv.basic...)}
	upper := 0
	for j := 0; j < rv.total; j++ {
		if rv.status[j] == atUpper {
			upper++
		}
	}
	if upper > 0 {
		basis.AtUpper = make([]int, 0, upper)
		for j := 0; j < rv.total; j++ {
			if rv.status[j] == atUpper {
				basis.AtUpper = append(basis.AtUpper, j)
			}
		}
	}
	return &Solution{
		X: x, Objective: obj, Iterations: rv.iters,
		Rows: rv.m, Cols: rv.n, Nnz: rv.nnz,
		Basis: basis,
	}, nil
}
