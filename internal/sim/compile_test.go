package sim

import (
	"math"
	"slices"
	"testing"

	"suu/internal/core"
	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/solve"
	"suu/internal/workload"
)

// compileStepwise is the reference compile: one pass per prefix step,
// one occurrence per (job, step), with the fail product and mass
// accumulated over the step's machines in machine order.
func compileStepwise(in *model.Instance, o *sched.Oblivious) (offs, steps []int32, succ, mass []float64) {
	n := in.N
	occ := make([][]int32, n)
	fail := make([][]float64, n)
	ms := make([][]float64, n)
	p := in.Flat()
	for t, a := range o.Steps {
		for i, j := range a {
			if j == sched.Idle || j < 0 || j >= n {
				continue
			}
			pv := p[i*n+j]
			if k := len(occ[j]) - 1; k >= 0 && occ[j][k] == int32(t) {
				fail[j][k] *= 1 - pv
				ms[j][k] += pv
				continue
			}
			occ[j] = append(occ[j], int32(t))
			fail[j] = append(fail[j], 1-pv)
			ms[j] = append(ms[j], pv)
		}
	}
	offs = make([]int32, n+1)
	for j := 0; j < n; j++ {
		offs[j+1] = offs[j] + int32(len(occ[j]))
		steps = append(steps, occ[j]...)
		for _, f := range fail[j] {
			succ = append(succ, 1-f)
		}
		mass = append(mass, ms[j]...)
	}
	return offs, steps, succ, mass
}

// bitsEqual compares float slices bit for bit.
func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestCompileMatchesStepwise pins the run-wise compile to the per-step
// reference: offs, steps, succ and mass are equal bit for bit, and so
// is SizeBytes, which counts them.
func TestCompileMatchesStepwise(t *testing.T) {
	type tc struct {
		name string
		in   *model.Instance
		o    *sched.Oblivious
	}
	small := workload.Chains(workload.Config{Jobs: 6, Machines: 3, Seed: 4}, 2)
	a, b := sched.Assignment{0, 1, 1}, sched.Assignment{1, 1, sched.Idle}
	cases := []tc{
		// Replicate shares each assignment across its copies.
		{"replicated", small, (&sched.Oblivious{M: 3, Steps: []sched.Assignment{
			{0, 3, sched.Idle}, {1, 4, 4}, {2, 5, 0}}}).Replicate(5)},
		// PackSequential-style runs: equal contents, distinct arrays.
		{"content-equal", small, &sched.Oblivious{M: 3, Steps: []sched.Assignment{
			{0, 3, 3}, {0, 3, 3}, {0, 3, 3}, {1, 3, 4}, {1, 3, 4}}}},
		{"idle steps", small, &sched.Oblivious{M: 3, Steps: []sched.Assignment{
			sched.NewIdle(3), sched.NewIdle(3), {0, sched.Idle, sched.Idle}, sched.NewIdle(3)}}},
		{"one job on several machines", small, &sched.Oblivious{M: 3, Steps: []sched.Assignment{
			{0, 0, 0}, {0, 0, 0}, {3, 0, 3}}}},
		// Both runs assign job 1, so its occurrences continue across the
		// run boundary.
		{"adjacent runs share a job", small, &sched.Oblivious{M: 3, Steps: []sched.Assignment{
			a, a, a, b, b, a}}},
		{"out-of-range jobs", small, &sched.Oblivious{M: 3, Steps: []sched.Assignment{
			{0, 6, -2}, {0, 6, -2}, {99, 1, 1}, {1, -7, 1}}}},
		{"nil tail", small, &sched.Oblivious{M: 3, Steps: []sched.Assignment{
			{2, 2, 5}, {2, 2, 5}, {5, 5, 5}}}},
	}
	shapes := []struct {
		name string
		in   *model.Instance
	}{
		{"independent", workload.Independent(workload.Config{Jobs: 16, Machines: 4, Seed: 11})},
		{"chains", workload.Chains(workload.Config{Jobs: 18, Machines: 4, Seed: 12}, 3)},
		{"out-forest", workload.OutTree(workload.Config{Jobs: 16, Machines: 4, Seed: 13})},
		{"in-forest", workload.InTree(workload.Config{Jobs: 16, Machines: 4, Seed: 14})},
		{"mixed forest", workload.MixedForest(workload.Config{Jobs: 18, Machines: 4, Seed: 15}, 3)},
		{"layered", workload.LayeredWidth(workload.Config{Jobs: 16, Machines: 4, Seed: 16}, 4, 0.3)},
	}
	for _, s := range shapes {
		_, res, err := solve.Auto(s.in, core.DefaultParams())
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		o, ok := res.Policy.(*sched.Oblivious)
		if !ok {
			t.Fatalf("%s: solve.Auto built %T", s.name, res.Policy)
		}
		cases = append(cases, tc{"auto " + s.name, s.in, o})
	}
	for _, c := range cases {
		got := compileOblivious(c.in, c.o)
		if got == nil {
			t.Fatalf("%s: compile failed", c.name)
		}
		offs, steps, succ, mass := compileStepwise(c.in, c.o)
		if !slices.Equal(got.offs, offs) || !slices.Equal(got.steps, steps) {
			t.Errorf("%s: offs/steps differ from the per-step compile:\n got %v %v\nwant %v %v",
				c.name, got.offs, got.steps, offs, steps)
			continue
		}
		if !bitsEqual(got.succ, succ) || !bitsEqual(got.mass, mass) {
			t.Errorf("%s: succ/mass differ from the per-step compile:\n got %v %v\nwant %v %v",
				c.name, got.succ, got.mass, succ, mass)
		}
	}
}
