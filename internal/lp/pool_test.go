package lp

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// This file pins the pooled solver workspace: a solver that has solved
// other problems must return what a fresh one returns, bit for bit,
// and nothing it returns may alias the arrays it keeps.

// lp2Problem builds (LP2) of Theorem 4.5 for jobs×machines: minimize t
// subject to Σ_i p_ij·x_ij ≥ 1/2 per job and Σ_j x_ij ≤ t per machine,
// with one x variable per positive p_ij (about a fifth are zero).
func lp2Problem(jobs, machines int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	type pair struct {
		i int
		p float64
	}
	var pairs [][]pair
	nv := 0
	for j := 0; j < jobs; j++ {
		var row []pair
		for i := 0; i < machines; i++ {
			if rng.Intn(5) > 0 || (i == machines-1 && len(row) == 0) {
				row = append(row, pair{i, 0.05 + 0.9*rng.Float64()})
			}
		}
		pairs = append(pairs, row)
		nv += len(row)
	}
	p := NewProblem(nv + 1)
	p.SetObjectiveCoef(nv, 1)
	load := make([][]Term, machines)
	v := 0
	for _, row := range pairs {
		var mass []Term
		for _, pr := range row {
			mass = append(mass, Term{v, pr.p})
			load[pr.i] = append(load[pr.i], Term{v, 1})
			v++
		}
		p.AddConstraint(mass, GE, 0.5)
	}
	for _, terms := range load {
		if len(terms) > 0 {
			p.AddConstraint(append(terms, Term{nv, -1}), LE, 0)
		}
	}
	return p
}

// packingLP builds max c·x subject to random ≤ rows with positive
// coefficients and right-hand sides: the all-logical start is already
// feasible, so the solve prices from its first iteration in phase 2.
func packingLP(vars, rows int, seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	p := NewProblem(vars)
	for v := 0; v < vars; v++ {
		p.SetObjectiveCoef(v, -0.5-rng.Float64())
	}
	for k := 0; k < rows; k++ {
		var terms []Term
		for v := 0; v < vars; v++ {
			if rng.Intn(2) == 0 {
				terms = append(terms, Term{v, 0.2 + rng.Float64()})
			}
		}
		p.AddConstraint(append(terms, Term{k % vars, 1}), LE, 1+3*rng.Float64())
	}
	return p
}

// lazyLP1 solves an (LP1)-shaped problem on solver rv with its window
// rows x_v ≤ d_j generated as lazy cuts, the way the core's chain
// pipeline does: mass and load rows, one chain over every job, d_j ≥ 1
// as bounds.
func lazyLP1(rv *revised, jobs, machines int, seed int64) (*Solution, error) {
	rng := rand.New(rand.NewSource(seed))
	type pair struct {
		i, j int
		p    float64
	}
	var pairs []pair
	for j := 0; j < jobs; j++ {
		for _, i := range rng.Perm(machines)[:1+rng.Intn(machines)] {
			pairs = append(pairs, pair{i, j, 0.05 + 0.9*rng.Float64()})
		}
	}
	nv := len(pairs)
	dBase, tVar := nv, nv+jobs
	p := NewProblem(tVar + 1)
	p.SetObjectiveCoef(tVar, 1)
	mass := make([][]Term, jobs)
	load := make([][]Term, machines)
	for v, pr := range pairs {
		mass[pr.j] = append(mass[pr.j], Term{v, pr.p})
		load[pr.i] = append(load[pr.i], Term{v, 1})
	}
	chain := []Term{{tVar, -1}}
	for j := 0; j < jobs; j++ {
		p.SetBounds(dBase+j, 1, math.Inf(1))
		p.AddConstraint(mass[j], GE, 0.5)
		chain = append(chain, Term{dBase + j, 1})
	}
	for _, terms := range load {
		if len(terms) > 0 {
			p.AddConstraint(append(terms, Term{tVar, -1}), LE, 0)
		}
	}
	p.AddConstraint(chain, LE, 0)
	added := make([]bool, nv)
	return rv.solve(p, nil, func(x []float64) []Cut {
		var cuts []Cut
		for v, pr := range pairs {
			if !added[v] && x[v] > x[dBase+pr.j]+1e-8 {
				added[v] = true
				cuts = append(cuts, Cut{Terms: []Term{{v, 1}, {dBase + pr.j, -1}}, Rel: LE})
			}
		}
		return cuts
	})
}

// sameSolution reports how two results differ, bit for bit in X and
// the objective, or "" when they do not.
func sameSolution(a *Solution, errA error, b *Solution, errB error) string {
	if errA != nil || errB != nil {
		if errA != errB {
			return fmt.Sprintf("errors %v vs %v", errA, errB)
		}
		return ""
	}
	switch {
	case !slices.EqualFunc(a.X, b.X, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }):
		return fmt.Sprintf("X %v vs %v", a.X, b.X)
	case math.Float64bits(a.Objective) != math.Float64bits(b.Objective):
		return fmt.Sprintf("objective %v vs %v", a.Objective, b.Objective)
	case a.Iterations != b.Iterations:
		return fmt.Sprintf("iterations %d vs %d", a.Iterations, b.Iterations)
	case a.Rows != b.Rows || a.Cols != b.Cols || a.Nnz != b.Nnz:
		return fmt.Sprintf("dimensions %d/%d/%d vs %d/%d/%d", a.Rows, a.Cols, a.Nnz, b.Rows, b.Cols, b.Nnz)
	case !slices.Equal(a.Basis.Basic, b.Basis.Basic) || !slices.Equal(a.Basis.AtUpper, b.Basis.AtUpper):
		return fmt.Sprintf("basis %v vs %v", a.Basis, b.Basis)
	}
	return ""
}

// solveCase is one solve on a given solver.
type solveCase struct {
	name  string
	solve func(rv *revised) (*Solution, error)
}

func cold(p func() *Problem) func(rv *revised) (*Solution, error) {
	return func(rv *revised) (*Solution, error) { return rv.solve(p(), nil, nil) }
}

// reuseCases are the problems the reuse tests solve: LP2 at three
// sizes, cold and from its own optimal basis, a lazy-row LP1, packing
// LPs feasible from the start, and bounded, infeasible and unbounded
// random LPs.
func reuseCases() []solveCase {
	lp2Basis, err := lp2Problem(12, 4, 1).Solve()
	if err != nil {
		panic(err)
	}
	return []solveCase{
		{"LP2 12x4", cold(func() *Problem { return lp2Problem(12, 4, 1) })},
		{"LP2 12x4 from its optimal basis", func(rv *revised) (*Solution, error) {
			return rv.solve(lp2Problem(12, 4, 1), lp2Basis.Basis, nil)
		}},
		{"LP2 40x8", cold(func() *Problem { return lp2Problem(40, 8, 2) })},
		{"LP2 3x2", cold(func() *Problem { return lp2Problem(3, 2, 3) })},
		{"lazy LP1 10x3", func(rv *revised) (*Solution, error) { return lazyLP1(rv, 10, 3, 4) }},
		{"packing LP 30x12", cold(func() *Problem { return packingLP(30, 12, 8) })},
		{"packing LP 8x5", cold(func() *Problem { return packingLP(8, 5, 9) })},
		{"bounded random LP", cold(func() *Problem { return randFeasible(rand.New(rand.NewSource(5))) })},
		{"infeasible random LP", cold(func() *Problem { return randInfeasible(rand.New(rand.NewSource(6))) })},
		{"unbounded random LP", cold(func() *Problem { return randUnbounded(rand.New(rand.NewSource(7))) })},
	}
}

// TestReusedSolverMatchesFresh solves every case on a solver that has
// just solved another case — larger, smaller, infeasible, unbounded,
// lazy — and checks the result against the same case solved first, on
// a fresh solver.
func TestReusedSolverMatchesFresh(t *testing.T) {
	cases := reuseCases()
	for _, c := range cases {
		want, wantErr := c.solve(new(revised))
		for _, before := range cases {
			rv := new(revised)
			if _, err := before.solve(rv); err != nil && err != ErrInfeasible && err != ErrUnbounded {
				t.Fatalf("%s: %v", before.name, err)
			}
			got, err := c.solve(rv)
			if diff := sameSolution(got, err, want, wantErr); diff != "" {
				t.Errorf("%s after %s: %s", c.name, before.name, diff)
			}
		}
	}
}

// TestSolutionOwnsItsArrays checks that a returned solution shares no
// array with the solver: solving any other case on the same solver
// leaves it unchanged.
func TestSolutionOwnsItsArrays(t *testing.T) {
	for _, c := range reuseCases() {
		rv := new(revised)
		sol, err := rv.solve(lp2Problem(12, 4, 1), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		keep := &Solution{
			X: slices.Clone(sol.X), Objective: sol.Objective, Iterations: sol.Iterations,
			Rows: sol.Rows, Cols: sol.Cols, Nnz: sol.Nnz,
			Basis: &Basis{Basic: slices.Clone(sol.Basis.Basic), AtUpper: slices.Clone(sol.Basis.AtUpper)},
		}
		c.solve(rv)
		if diff := sameSolution(sol, nil, keep, nil); diff != "" {
			t.Errorf("solving %s changed an earlier solution: %s", c.name, diff)
		}
	}
}

// TestConcurrentSolvesMatchSequential runs the reuse cases through the
// pooled public path on 4 goroutines at once, each in its own order,
// against sequential solves on fresh solvers. Run it under -race.
func TestConcurrentSolvesMatchSequential(t *testing.T) {
	cases := reuseCases()
	type result struct {
		sol *Solution
		err error
	}
	want := make([]result, len(cases))
	for k, c := range cases {
		want[k].sol, want[k].err = c.solve(new(revised))
	}
	const goroutines, rounds = 4, 5
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*rounds*len(cases))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for k := range cases {
					k := (k*(g+1) + r) % len(cases)
					rv := revisedPool.Get().(*revised)
					sol, err := cases[k].solve(rv)
					revisedPool.Put(rv)
					if diff := sameSolution(sol, err, want[k].sol, want[k].err); diff != "" {
						errs <- fmt.Sprintf("goroutine %d round %d %s: %s", g, r, cases[k].name, diff)
					}
				}
			}
		}(g)
	}
	// The public entry points take their solvers from the same pool.
	for r := 0; r < rounds; r++ {
		got, err := lp2Problem(12, 4, 1).Solve()
		if diff := sameSolution(got, err, want[0].sol, want[0].err); diff != "" {
			errs <- fmt.Sprintf("Solve round %d: %s", r, diff)
		}
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
