package model

import (
	"errors"
	"fmt"

	"suu/internal/dag"
)

// Instance is a complete SUU problem instance.
//
// The zero value is not usable; construct instances with New and add
// precedence edges through the embedded dag, or use the workload
// package generators.
//
// The probability matrix is stored row-major in one contiguous
// allocation; the P rows are views into it, so P[i][j] reads and
// writes stay valid while the simulation hot path iterates the flat
// backing with unit stride (see Flat).
type Instance struct {
	// N is the number of jobs, indexed 0..N-1.
	N int
	// M is the number of machines, indexed 0..M-1.
	M int
	// P[i][j] is the per-step success probability of machine i on job j.
	// Rows alias the contiguous backing slice; assign entries freely but
	// prefer SetAt/At when writing new code.
	P [][]float64
	// Prec is the precedence dag over jobs. An edge u->v means u must
	// complete before v becomes eligible.
	Prec *dag.DAG

	// flat is the row-major backing of P: flat[i*N+j] == P[i][j].
	flat []float64
}

// New returns an instance with n jobs, m machines, a zero probability
// matrix and an empty precedence dag.
func New(n, m int) *Instance {
	in := &Instance{N: n, M: m, Prec: dag.New(n)}
	in.bindFlat(make([]float64, m*n))
	return in
}

// bindFlat installs flat as the backing store and re-slices the P rows
// as views into it.
func (in *Instance) bindFlat(flat []float64) {
	in.flat = flat
	in.P = make([][]float64, in.M)
	for i := 0; i < in.M; i++ {
		in.P[i] = flat[i*in.N : (i+1)*in.N : (i+1)*in.N]
	}
}

// aliased reports whether the P rows still view the flat backing (a
// caller may have reassigned P wholesale).
func (in *Instance) aliased() bool {
	if in.N <= 0 || in.M <= 0 || len(in.flat) != in.M*in.N || len(in.P) != in.M {
		return false
	}
	for i := range in.P {
		if len(in.P[i]) != in.N || &in.P[i][0] != &in.flat[i*in.N] {
			return false
		}
	}
	return true
}

// Flat returns the row-major probability matrix: Flat()[i*N+j] ==
// P[i][j]. The slice aliases the instance; treat it as read-only. If
// the P rows were replaced wholesale (e.g. a hand-built literal), the
// backing is rebuilt from the current values first.
func (in *Instance) Flat() []float64 {
	if !in.aliased() {
		flat := make([]float64, in.M*in.N)
		for i := 0; i < in.M; i++ {
			copy(flat[i*in.N:(i+1)*in.N], in.P[i])
		}
		in.bindFlat(flat)
	}
	return in.flat
}

// At returns P[i][j].
func (in *Instance) At(i, j int) float64 { return in.P[i][j] }

// SetAt sets P[i][j] = p.
func (in *Instance) SetAt(i, j int, p float64) { in.P[i][j] = p }

// Clone returns a deep copy of the instance.
func (in *Instance) Clone() *Instance {
	out := New(in.N, in.M)
	for i := range in.P {
		copy(out.P[i], in.P[i])
	}
	out.Prec = in.Prec.Clone()
	return out
}

// Validate checks the structural invariants the algorithms rely on:
// positive dimensions, probabilities in [0,1], at least one machine
// with positive success probability for every job (the paper's
// standing assumption, needed for finite expected makespan), and an
// acyclic precedence graph over exactly the N jobs.
func (in *Instance) Validate() error {
	if in.N <= 0 {
		return errors.New("model: instance must have at least one job")
	}
	if in.M <= 0 {
		return errors.New("model: instance must have at least one machine")
	}
	if len(in.P) != in.M {
		return fmt.Errorf("model: P has %d rows, want M=%d", len(in.P), in.M)
	}
	for i, row := range in.P {
		if len(row) != in.N {
			return fmt.Errorf("model: P[%d] has %d columns, want N=%d", i, len(row), in.N)
		}
		for j, p := range row {
			if !(p >= 0 && p <= 1) { // NaN fails too
				return fmt.Errorf("model: P[%d][%d]=%v out of [0,1]", i, j, p)
			}
		}
	}
	for j := 0; j < in.N; j++ {
		ok := false
		for i := 0; i < in.M; i++ {
			if in.P[i][j] > 0 {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("model: job %d has no machine with positive success probability", j)
		}
	}
	if in.Prec == nil {
		return errors.New("model: nil precedence dag")
	}
	if in.Prec.N() != in.N {
		return fmt.Errorf("model: dag has %d vertices, want N=%d", in.Prec.N(), in.N)
	}
	if !in.Prec.IsAcyclic() {
		return errors.New("model: precedence graph contains a cycle")
	}
	return nil
}

// SuccessProb returns the single-step completion probability of job j
// when the machine set ms is assigned to it: 1 - Π(1 - P[i][j]).
func (in *Instance) SuccessProb(j int, ms []int) float64 {
	q := 1.0
	for _, i := range ms {
		q *= 1 - in.P[i][j]
	}
	return 1 - q
}

// Mass returns the linearized success measure Σ_i P[i][j] over the
// machine set ms, capped at 1 (Definition 2.4 of the paper).
func (in *Instance) Mass(j int, ms []int) float64 {
	s := 0.0
	for _, i := range ms {
		s += in.P[i][j]
	}
	if s > 1 {
		return 1
	}
	return s
}
