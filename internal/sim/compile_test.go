package sim

import (
	"math"
	"slices"
	"testing"

	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/workload"
)

// compileStepwise is the reference compile: one pass per prefix step,
// one occurrence per (job, step), with the fail product accumulated
// over the step's machines in machine order.
func compileStepwise(in *model.Instance, o *sched.Oblivious) (offs, steps []int32, succ []float64) {
	n := in.N
	occ := make([][]int32, n)
	fail := make([][]float64, n)
	p := in.Flat()
	for t, a := range o.Steps() {
		for i, j := range a {
			if j == sched.Idle || j < 0 || j >= n {
				continue
			}
			pv := p[i*n+j]
			if k := len(occ[j]) - 1; k >= 0 && occ[j][k] == int32(t) {
				fail[j][k] *= 1 - pv
				continue
			}
			occ[j] = append(occ[j], int32(t))
			fail[j] = append(fail[j], 1-pv)
		}
	}
	offs = make([]int32, n+1)
	for j := 0; j < n; j++ {
		offs[j+1] = offs[j] + int32(len(occ[j]))
		steps = append(steps, occ[j]...)
		for _, f := range fail[j] {
			succ = append(succ, 1-f)
		}
	}
	return offs, steps, succ
}

// bitsEqual compares float slices bit for bit.
func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// expand unrolls c's run tables into the per-occurrence tables the
// reference builds: job j's occurrences are steps[offs[j]:offs[j+1]],
// each with its run's succ. It fails t when an entry's base is not the
// number of occurrences before it, or occurrences miscounts them.
func expand(t *testing.T, c *compiledOblivious) (offs, steps []int32, succ []float64) {
	t.Helper()
	n := c.in.N
	offs = make([]int32, n+1)
	for j := 0; j < n; j++ {
		for _, r := range c.runs[c.offs[j]:c.offs[j+1]] {
			if int(r.base) != len(steps) {
				t.Errorf("job %d: run [%d, %d) has base %d after %d occurrences", j, r.start, r.end, r.base, len(steps))
			}
			for s := r.start; s < r.end; s++ {
				steps = append(steps, s)
				succ = append(succ, r.succ)
			}
		}
		offs[j+1] = int32(len(steps))
	}
	if c.occurrences != len(steps) {
		t.Errorf("occurrences = %d, the runs cover %d", c.occurrences, len(steps))
	}
	return offs, steps, succ
}

// TestCompileMatchesStepwise pins the run-wise compile to the per-step
// reference: the run tables, unrolled, give its offs, steps and succ
// bit for bit, and SizeBytes charges what its tables count.
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
		{"replicated", small, (sched.NewOblivious(3, []sched.Assignment{
			{0, 3, sched.Idle}, {1, 4, 4}, {2, 5, 0}}, nil)).Replicate(5)},
		// PackSequential-style runs: equal contents, distinct arrays.
		{"content-equal", small, sched.NewOblivious(3, []sched.Assignment{
			{0, 3, 3}, {0, 3, 3}, {0, 3, 3}, {1, 3, 4}, {1, 3, 4}}, nil)},
		{"idle steps", small, sched.NewOblivious(3, []sched.Assignment{
			sched.NewIdle(3), sched.NewIdle(3), {0, sched.Idle, sched.Idle}, sched.NewIdle(3)}, nil)},
		{"one job on several machines", small, sched.NewOblivious(3, []sched.Assignment{
			{0, 0, 0}, {0, 0, 0}, {3, 0, 3}}, nil)},
		// Both runs assign job 1, so its occurrences continue across the
		// run boundary.
		{"adjacent runs share a job", small, sched.NewOblivious(3, []sched.Assignment{
			a, a, a, b, b, a}, nil)},
		{"out-of-range jobs", small, sched.NewOblivious(3, []sched.Assignment{
			{0, 6, -2}, {0, 6, -2}, {99, 1, 1}, {1, -7, 1}}, nil)},
		{"nil tail", small, sched.NewOblivious(3, []sched.Assignment{
			{2, 2, 5}, {2, 2, 5}, {5, 5, 5}}, nil)},
	}
	for _, s := range autoShapes() {
		cases = append(cases, tc{"auto " + s.name, s.in, autoOblivious(t, s.in)})
	}
	for _, c := range cases {
		p := Prepare(c.in, c.o)
		if p.compiled == nil {
			t.Fatalf("%s: compile failed", c.name)
		}
		gotOffs, gotSteps, gotSucc := expand(t, p.compiled)
		offs, steps, succ := compileStepwise(c.in, c.o)
		if !slices.Equal(gotOffs, offs) || !slices.Equal(gotSteps, steps) {
			t.Errorf("%s: offs/steps differ from the per-step compile:\n got %v %v\nwant %v %v",
				c.name, gotOffs, gotSteps, offs, steps)
			continue
		}
		if !bitsEqual(gotSucc, succ) {
			t.Errorf("%s: succ differs from the per-step compile:\n got %v\nwant %v", c.name, gotSucc, succ)
		}
		if want := int64(len(steps))*20 + int64(len(offs)+c.in.N)*4 + 256; p.SizeBytes() != want {
			t.Errorf("%s: SizeBytes = %d, want %d", c.name, p.SizeBytes(), want)
		}
	}
}
