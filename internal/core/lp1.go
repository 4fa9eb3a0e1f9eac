package core

import (
	"fmt"
	"math"
	"slices"

	"suu/internal/lp"
	"suu/internal/model"
)

// FracSolution is an optimal fractional solution of (LP1) or (LP2),
// restricted to a job scope (the whole job set, or one decomposition
// block).
type FracSolution struct {
	// Jobs lists the job indices in scope.
	Jobs []int
	// X[i][j] is machine i's fractional step count on job j (indexed by
	// original job id; zero outside the scope).
	X [][]float64
	// D[j] is d_j, the fractional window length of job j (1 when the
	// relaxation had no d variables).
	D []float64
	// T is the optimal LP value t (T* in the paper).
	T float64
	// Iterations reports simplex pivots, for the harness.
	Iterations int
	// Rows, Cols and Nnz are the LP's dimensions (constraint rows,
	// structural variables, structural nonzeros), so the perf record
	// tracks LP effort, not just wall-clock.
	Rows, Cols, Nnz int
	// Basis is the optimal simplex basis of the solve, exported for
	// warm-start caches: feeding it back through Params.WarmBasis on a
	// re-solve of the identical problem starts the simplex at its own
	// optimum and terminates in the phase-2 optimality check, pivot-
	// free, at the same vertex (objective equal to roundoff — the fresh
	// factorization rounds differently than the original run's eta
	// file). Set on the direct (LP2) path only — the
	// lazy (LP1) path's final basis spans generated cut rows a fresh
	// solve does not have, so it could never be adopted (nil there, and
	// from the dense oracle).
	Basis *lp.Basis
}

// LPWarm carries crash-basis information across the per-block LP
// solves of a decomposition pipeline: the accumulated fractional load
// each machine received in earlier blocks. The crash basis for the
// next block starts each job's mass row on the machine with the best
// success probability discounted by that load, so consecutive blocks
// begin near a load-balanced vertex instead of the all-logical basis.
type LPWarm struct {
	load []float64
}

// NewLPWarm returns an empty warm-start context for m machines.
func NewLPWarm(m int) *LPWarm { return &LPWarm{load: make([]float64, m)} }

// note accumulates the fractional machine loads of a solved block.
func (w *LPWarm) note(in *model.Instance, fs *FracSolution) {
	for i := 0; i < in.M; i++ {
		for _, j := range fs.Jobs {
			w.load[i] += fs.X[i][j]
		}
	}
}

// score ranks machine i as the crash choice for a job with success
// probability p: higher probability is better, discounted by the load
// the machine already carries from earlier blocks.
func (w *LPWarm) score(i int, p float64) float64 {
	if w == nil {
		return p
	}
	return p / (1 + w.load[i])
}

// lpOptions selects the LP solver variant for one solve.
type lpOptions struct {
	// dense routes the solve through the dense tableau oracle instead
	// of the sparse revised simplex (cross-checks and benchmarks).
	dense bool
	// warm biases the crash basis across per-block solves (sparse path
	// only).
	warm *LPWarm
	// crash, when set and row-compatible with the problem, replaces the
	// synthesized crash basis outright — a caller-cached optimal basis
	// from an earlier solve of the same problem (Params.WarmBasis).
	crash *lp.Basis
}

func (o lpOptions) solve(prob *lp.Problem, crash *lp.Basis) (*lp.Solution, error) {
	if o.dense {
		return prob.DenseSolve()
	}
	if o.crash != nil && len(o.crash.Basic) == prob.NumConstraints() {
		// Row-count mismatch means the cached basis was cut from a
		// different formulation; SolveFrom would fall back to the
		// all-logical basis, which is strictly worse than the crash
		// basis, so only adopt when the shape can match.
		return prob.SolveFrom(o.crash)
	}
	return prob.SolveFrom(crash)
}

// buildVars enumerates the x variables: one per (machine, job) pair
// with positive success probability and the job in scope, job-major
// in scope order.
func buildVars(in *model.Instance, jobs []int) []pairPJ {
	nv := 0
	for _, j := range jobs {
		for i := 0; i < in.M; i++ {
			if in.P[i][j] > 0 {
				nv++
			}
		}
	}
	pairs := make([]pairPJ, 0, nv)
	for _, j := range jobs {
		for i := 0; i < in.M; i++ {
			if in.P[i][j] > 0 {
				pairs = append(pairs, pairPJ{i: i, j: j, p: in.P[i][j]})
			}
		}
	}
	return pairs
}

// SolveLP1 formulates and solves (LP1) of Section 4.1 for the given
// chain set: minimize t subject to
//
//	Σ_i p_ij·x_ij ≥ target          ∀ jobs j in scope      (mass)
//	Σ_j x_ij ≤ t                    ∀ machines i           (load)
//	Σ_{j∈C_k} d_j ≤ t               ∀ chains C_k           (chain time)
//	x_ij ≤ d_j, d_j ≥ 1, x_ij ≥ 0
//
// d_j ≥ 1 is a native variable bound of the sparse solver (the dense
// oracle synthesizes the equivalent row). The O(n·m) window rows
// x_ij ≤ d_j — the bulk of the formulation, and almost all slack at
// any optimum — are generated lazily on the sparse path: the LP is
// solved without them, violated windows are added as rows, and the
// re-solve warm-starts from the previous optimal basis extended with
// the new rows' logicals. The working LP stays near the size of the
// mass+load+chain core, which is what makes large scopes tractable.
// The chains must be disjoint; their union is the job scope.
func SolveLP1(in *model.Instance, chains [][]int, target float64) (*FracSolution, error) {
	return solveLP1(in, chains, target, lpOptions{})
}

func solveLP1(in *model.Instance, chains [][]int, target float64, opts lpOptions) (*FracSolution, error) {
	var jobs []int
	chainOf := make(map[int]int)
	for k, c := range chains {
		for _, j := range c {
			if _, dup := chainOf[j]; dup {
				return nil, fmt.Errorf("core: job %d appears in two chains", j)
			}
			chainOf[j] = k
			jobs = append(jobs, j)
		}
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("core: empty chain set")
	}
	pairs := buildVars(in, jobs)
	nv := len(pairs)
	dBase := nv // d_j variables, one per job in scope order
	tVar := nv + len(jobs)
	// posOf maps a job id to its position in the scope (and so to its
	// mass row and d variable); slice-indexed lookups keep the builder
	// map-free on the forest pipeline's many small block solves.
	posOf := make([]int, in.N)
	for j := range posOf {
		posOf[j] = -1
	}
	for jj, j := range jobs {
		posOf[j] = jj
	}
	// Row layout (the crash basis depends on it): mass rows first (row
	// index == job position in scope), then load and chain rows, then
	// whatever window rows the working set carries, in insertion order.
	build := func(windows []int) (*lp.Problem, error) {
		prob := lp.NewProblem(tVar + 1)
		prob.SetObjectiveCoef(tVar, 1)
		for jj := range jobs {
			prob.SetBounds(dBase+jj, 1, math.Inf(1))
		}
		if err := addMassLoadRows(prob, in, jobs, pairs, target, tVar); err != nil {
			return nil, err
		}
		for _, c := range chains {
			terms := make([]lp.Term, 0, len(c)+1)
			for _, j := range c {
				terms = append(terms, lp.Term{Var: dBase + posOf[j], Coef: 1})
			}
			terms = append(terms, lp.Term{Var: tVar, Coef: -1})
			prob.AddConstraint(terms, lp.LE, 0)
		}
		for _, v := range windows {
			pr := pairs[v]
			prob.AddConstraint([]lp.Term{{Var: v, Coef: 1}, {Var: dBase + posOf[pr.j], Coef: -1}}, lp.LE, 0)
		}
		return prob, nil
	}

	var sol *lp.Solution
	if opts.dense {
		// The oracle solves the full formulation in one shot.
		all := make([]int, nv)
		for v := range all {
			all[v] = v
		}
		prob, err := build(all)
		if err != nil {
			return nil, err
		}
		s, err := prob.DenseSolve()
		if err != nil {
			return nil, fmt.Errorf("core: LP1 solve: %w", err)
		}
		sol = s
	} else {
		prob, err := build(nil)
		if err != nil {
			return nil, err
		}
		s, err := solveLP1Lazy(prob, pairs, dBase, posOf, opts.warm)
		if err != nil {
			return nil, fmt.Errorf("core: LP1 solve: %w", err)
		}
		sol = s
	}
	dVarOf := make([]int, in.N)
	for j := range dVarOf {
		dVarOf[j] = -1
	}
	for jj, j := range jobs {
		dVarOf[j] = dBase + jj
	}
	fs := extractSolution(in, jobs, pairs, sol, dVarOf, tVar)
	if opts.warm != nil {
		opts.warm.note(in, fs)
	}
	return fs, nil
}

// solveLP1Lazy solves (LP1) with the window rows generated as lazy
// cuts: the working LP prob starts with only the mass/load/chain core,
// and every separation round appends the violated x_ij ≤ d_j rows
// in-place (the solver keeps its basis; the new rows' logicals enter
// phase 1 infeasible by exactly the violation). The result is optimal
// for the full (LP1): the working LP is a relaxation, and its
// optimum satisfies every dropped row.
func solveLP1Lazy(prob *lp.Problem, pairs []pairPJ, dBase int, posOf []int, warm *LPWarm) (*lp.Solution, error) {
	const windowTol = 1e-8
	inWindows := make([]bool, len(pairs))
	dVar := make([]int32, len(pairs))
	for v, pr := range pairs {
		dVar[v] = int32(dBase + posOf[pr.j])
	}
	return prob.SolveLazy(crashBasis(prob, pairs, warm), func(x []float64) []lp.Cut {
		// Add every violated window, and — only in rounds that already
		// found violations — the near-binding ones (x within 25% of the
		// window), which almost always bind after the violated rows
		// tighten the optimum. The anticipation saves separation rounds
		// without inflating the working set when the LP is done.
		var cuts []lp.Cut
		violated := false
		for v := range pairs {
			if !inWindows[v] && x[v] > x[dVar[v]]+windowTol {
				violated = true
				break
			}
		}
		if !violated {
			return nil
		}
		for v := range pairs {
			if !inWindows[v] && x[v] > 0.75*x[dVar[v]] {
				inWindows[v] = true
				cuts = append(cuts, lp.Cut{
					Terms: []lp.Term{{Var: v, Coef: 1}, {Var: int(dVar[v]), Coef: -1}},
					Rel:   lp.LE,
					Rhs:   0,
				})
			}
		}
		return cuts
	})
}

// crashBasis builds the starting basis for an (LP1)/(LP2) solve:
// every row starts on its logical except the mass rows (rows 0..q-1
// by the shared row layout) — the only rows infeasible at the
// all-logical start — which start on the x variable of the
// crash-chosen machine. The basis is nonsingular by construction
// (expanding along the unit columns leaves a diagonal of positive
// mass-row entries), and it typically saves most of the phase-1
// pivots that a cold start spends making the mass rows feasible one
// by one.
func crashBasis(prob *lp.Problem, pairs []pairPJ, warm *LPWarm) *lp.Basis {
	basic := make([]int, prob.NumConstraints())
	for r := range basic {
		basic[r] = prob.LogicalVar(r)
	}
	// pairs are emitted job-major (buildVars iterates the scope in
	// order), so the running position tracks the job — and its mass
	// row — without a lookup. Every job in scope has a pair (the
	// builders reject one without), so each mass row gets its best
	// machine.
	jj := -1
	lastJob := -1
	best := 0.0
	for v, pr := range pairs {
		s := warm.score(pr.i, pr.p)
		if pr.j != lastJob {
			jj++
			lastJob = pr.j
			basic[jj], best = v, s
		} else if s > best {
			basic[jj], best = v, s
		}
	}
	return &lp.Basis{Basic: basic}
}

// SolveLP1Bench is SolveLP1 with explicit backend selection (dense =
// the tableau oracle), for the LP benchmark harness and cross-checks.
func SolveLP1Bench(in *model.Instance, chains [][]int, target float64, dense bool) (*FracSolution, error) {
	return solveLP1(in, chains, target, lpOptions{dense: dense})
}

// SolveLP2Bench is SolveLP2 with explicit backend selection.
func SolveLP2Bench(in *model.Instance, jobs []int, target float64, dense bool) (*FracSolution, error) {
	return solveLP2(in, jobs, target, lpOptions{dense: dense})
}

// SolveLP2 formulates and solves (LP2) of Theorem 4.5 — (LP1) without
// the chain/window constraints — for an independent job scope.
func SolveLP2(in *model.Instance, jobs []int, target float64) (*FracSolution, error) {
	return solveLP2(in, jobs, target, lpOptions{})
}

func solveLP2(in *model.Instance, jobs []int, target float64, opts lpOptions) (*FracSolution, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("core: empty job scope")
	}
	pairs := buildVars(in, jobs)
	nv := len(pairs)
	tVar := nv
	prob := lp.NewProblem(tVar + 1)
	prob.SetObjectiveCoef(tVar, 1)
	if err := addMassLoadRows(prob, in, jobs, pairs, target, tVar); err != nil {
		return nil, err
	}
	sol, err := opts.solve(prob, crashBasis(prob, pairs, opts.warm))
	if err != nil {
		return nil, fmt.Errorf("core: LP2 solve: %w", err)
	}
	fs := extractSolution(in, jobs, pairs, sol, nil, tVar)
	fs.Basis = sol.Basis
	if opts.warm != nil {
		opts.warm.note(in, fs)
	}
	return fs, nil
}

// addMassLoadRows adds the rows (LP1) and (LP2) share, in the row
// layout crashBasis relies on: a mass row Σ_i p_ij·x_ij ≥ target per
// job in scope order, then a load row Σ_j x_ij − t ≤ 0 per machine
// that runs a job in scope. It fails on a job no machine can run.
func addMassLoadRows(prob *lp.Problem, in *model.Instance, jobs []int, pairs []pairPJ, target float64, tVar int) error {
	// AddConstraint copies each row, so one array of nv+m terms serves
	// them all: first as scratch for each job's mass row (buildVars
	// emits the pairs job-major, so a job's pairs are one run of them),
	// then for the load rows, machine i's pairs in pair order closed by
	// −t from loadAt[i] on.
	nv := len(pairs)
	terms := make([]lp.Term, nv+in.M)
	v := 0
	for _, j := range jobs {
		row := terms[:0]
		for ; v < nv && pairs[v].j == j; v++ {
			row = append(row, lp.Term{Var: v, Coef: pairs[v].p})
		}
		if len(row) == 0 {
			return fmt.Errorf("core: job %d has no capable machine", j)
		}
		prob.AddConstraint(row, lp.GE, target)
	}
	loadAt := make([]int, in.M+1)
	for _, pr := range pairs {
		loadAt[pr.i+1]++
	}
	for i := 0; i < in.M; i++ {
		loadAt[i+1] += loadAt[i] + 1
	}
	next := slices.Clone(loadAt[:in.M])
	for v, pr := range pairs {
		terms[next[pr.i]] = lp.Term{Var: v, Coef: 1}
		next[pr.i]++
	}
	for i := 0; i < in.M; i++ {
		if next[i] == loadAt[i] {
			continue // no job in scope runs on machine i
		}
		terms[next[i]] = lp.Term{Var: tVar, Coef: -1}
		prob.AddConstraint(terms[loadAt[i]:next[i]+1], lp.LE, 0)
	}
	return nil
}

func extractSolution(in *model.Instance, jobs []int, pairs []pairPJ, sol *lp.Solution, dVarOf []int, tVar int) *FracSolution {
	fs := &FracSolution{
		Jobs:       append([]int(nil), jobs...),
		X:          make([][]float64, in.M),
		D:          make([]float64, in.N),
		T:          sol.X[tVar],
		Iterations: sol.Iterations,
		Rows:       sol.Rows,
		Cols:       sol.Cols,
		Nnz:        sol.Nnz,
	}
	flat := make([]float64, in.M*in.N)
	for i := range fs.X {
		fs.X[i] = flat[i*in.N : (i+1)*in.N : (i+1)*in.N]
	}
	for v, pr := range pairs {
		fs.X[pr.i][pr.j] = sol.X[v]
	}
	for _, j := range jobs {
		if dVarOf != nil {
			fs.D[j] = sol.X[dVarOf[j]]
		} else {
			fs.D[j] = 1
		}
	}
	return fs
}

// LPLowerBound converts an (LP1) optimum T* into a lower bound on the
// optimal expected makespan via Lemma 4.2 (T* ≤ 16·T_OPT when the LP
// targets mass 1/2): T_OPT ≥ T*/16. For a different mass target τ the
// same proof gives T* ≤ 2·T_OPT·max(1, 16τ) — callers should use the
// 1/2 default for the canonical bound.
func LPLowerBound(tStar float64) float64 { return tStar / 16 }
