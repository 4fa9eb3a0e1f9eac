package lp

import (
	"errors"
	"fmt"
	"math"
)

// Rel is the relation of a constraint row.
type Rel int

const (
	// LE is a ≤ constraint.
	LE Rel = iota
	// GE is a ≥ constraint.
	GE
	// EQ is an = constraint.
	EQ
)

// Term is one coefficient of a constraint: Coef * x[Var].
type Term struct {
	Var  int
	Coef float64
}

type constraint struct {
	terms []Term
	rel   Rel
	rhs   float64
}

// Problem is a linear program under construction. Variables default
// to the nonnegative orthant (bounds [0, +Inf)); SetBounds overrides
// per variable.
type Problem struct {
	nvars    int
	c        []float64
	lo, up   []float64
	cons     []constraint
	hasBound bool
}

// Solution holds an optimal solution.
type Solution struct {
	// X is the optimal assignment, length NumVars.
	X []float64
	// Objective is c·X.
	Objective float64
	// Iterations is the total number of simplex pivots performed.
	Iterations int
	// Rows, Cols and Nnz are the constraint system's dimensions (rows,
	// structural variables, structural nonzeros) — the quantities the
	// perf harness tracks alongside pivot counts.
	Rows, Cols, Nnz int
	// Basis is the optimal basis (revised solver only; nil from
	// DenseSolve). Feed it back via SolveFrom to warm-start a re-solve
	// of the same problem shape.
	Basis *Basis
}

// Basis identifies a simplex basis of a problem: which variable is
// basic in each row, and which nonbasic variables sit at their upper
// bound (the rest sit at their lower bound, or at zero when free).
// Variable indices 0..NumVars-1 are structural; LogicalVar(k) is row
// k's logical (slack) variable.
type Basis struct {
	// Basic has one entry per constraint row: the index of the basic
	// variable associated with that row.
	Basic []int
	// AtUpper lists nonbasic variables resting at a finite upper bound.
	AtUpper []int
}

// ErrInfeasible is returned when the constraint set has no solution.
var ErrInfeasible = errors.New("lp: infeasible")

// ErrUnbounded is returned when the objective is unbounded below.
var ErrUnbounded = errors.New("lp: unbounded")

const (
	eps      = 1e-9
	stallLim = 64 // pivots without objective progress before Bland's rule
)

// NewProblem returns a problem with nvars nonnegative variables and a
// zero objective.
func NewProblem(nvars int) *Problem {
	if nvars <= 0 {
		panic("lp: problem needs at least one variable")
	}
	return &Problem{nvars: nvars, c: make([]float64, nvars)}
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return p.nvars }

// NumConstraints returns the number of constraint rows added so far.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// Nnz returns the number of structural nonzeros added so far (before
// duplicate-term accumulation).
func (p *Problem) Nnz() int {
	n := 0
	for _, con := range p.cons {
		n += len(con.terms)
	}
	return n
}

// LogicalVar returns the variable index of row k's logical (slack)
// variable in the revised solver's indexing, for constructing crash
// bases: structural variables occupy 0..NumVars-1, logicals follow in
// row order.
func (p *Problem) LogicalVar(k int) int { return p.nvars + k }

// SetObjectiveCoef sets the objective coefficient of variable v.
func (p *Problem) SetObjectiveCoef(v int, coef float64) {
	p.c[v] = coef
}

// SetBounds replaces variable v's bounds [0, +Inf) with [lo, up].
// lo may be math.Inf(-1) and up math.Inf(1); lo must not exceed up.
// DenseSolve supports only finite lo ≥ 0 (it synthesizes bound rows);
// the revised solver handles any bounds natively.
func (p *Problem) SetBounds(v int, lo, up float64) {
	if v < 0 || v >= p.nvars {
		panic(fmt.Sprintf("lp: bounds reference variable %d of %d", v, p.nvars))
	}
	if lo > up {
		panic(fmt.Sprintf("lp: variable %d bounds cross (%v > %v)", v, lo, up))
	}
	p.ensureBounds()
	p.lo[v], p.up[v] = lo, up
}

func (p *Problem) ensureBounds() {
	if p.hasBound {
		return
	}
	p.lo = make([]float64, p.nvars)
	p.up = make([]float64, p.nvars)
	for i := range p.up {
		p.up[i] = math.Inf(1)
	}
	p.hasBound = true
}

// lower returns variable v's lower bound.
func (p *Problem) lower(v int) float64 {
	if !p.hasBound {
		return 0
	}
	return p.lo[v]
}

// upper returns variable v's upper bound.
func (p *Problem) upper(v int) float64 {
	if !p.hasBound {
		return math.Inf(1)
	}
	return p.up[v]
}

// AddConstraint appends the row Σ terms (rel) rhs. Terms may repeat a
// variable; coefficients accumulate.
func (p *Problem) AddConstraint(terms []Term, rel Rel, rhs float64) {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= p.nvars {
			panic(fmt.Sprintf("lp: constraint references variable %d of %d", t.Var, p.nvars))
		}
	}
	cp := make([]Term, len(terms))
	copy(cp, terms)
	p.cons = append(p.cons, constraint{terms: cp, rel: rel, rhs: rhs})
}

// Solve runs the sparse revised simplex from a cold (all-logical)
// start and returns an optimal solution, ErrInfeasible, or
// ErrUnbounded.
func (p *Problem) Solve() (*Solution, error) {
	return p.SolveFrom(nil)
}

// SolveFrom runs the sparse revised simplex starting from the given
// basis (nil means the all-logical cold start). An invalid or
// singular basis falls back to the cold start rather than failing, so
// callers may pass heuristic crash bases freely.
func (p *Problem) SolveFrom(basis *Basis) (*Solution, error) {
	return p.SolveLazy(basis, nil)
}

// Cut is one lazily separated constraint row for SolveLazy.
type Cut struct {
	Terms []Term
	Rel   Rel
	Rhs   float64
}

// SolveLazy runs the revised simplex with row generation: whenever
// the working problem is solved to optimality, separate (may be nil)
// is called with the current optimal x (the solver's own array, valid
// only during the call) and returns violated rows to append. The new
// rows join the problem (p is mutated), their logicals join the basis
// — infeasible by exactly the violation, so phase 1 resumes from the
// prior optimum instead of restarting — and the solve continues until
// separation returns nothing. Because the working problem is always a
// relaxation of the fully cut problem, the final solution is optimal
// for it. The separation callback must eventually stop returning cuts
// (e.g. never repeat a row); each round's cuts are appended in one
// batch under a single refactorization.
func (p *Problem) SolveLazy(basis *Basis, separate func(x []float64) []Cut) (*Solution, error) {
	rv := revisedPool.Get().(*revised)
	defer revisedPool.Put(rv)
	return rv.solve(p, basis, separate)
}

// solve runs SolveLazy on the solver rv, which it loads with p first.
func (rv *revised) solve(p *Problem, basis *Basis, separate func(x []float64) []Cut) (*Solution, error) {
	rv.load(p)
	if err := rv.start(basis); err != nil {
		return nil, err
	}
	for {
		if err := rv.run(); err != nil {
			return nil, err
		}
		if separate == nil {
			return rv.solution(p)
		}
		rv.sepX = rv.currentX(resize(rv.sepX, rv.n))
		cuts := separate(rv.sepX)
		if len(cuts) == 0 {
			return rv.solution(p)
		}
		base := len(p.cons)
		for _, c := range cuts {
			p.AddConstraint(c.Terms, c.Rel, c.Rhs)
		}
		rv.appendRows(p.cons[base:])
		// On small working bases a refactorization is nearly free and
		// compacts the eta file for the next rounds; on large ones the
		// kRow correction etas are much cheaper than refactorizing.
		if rv.m < 512 {
			rv.refresh()
		}
	}
}
