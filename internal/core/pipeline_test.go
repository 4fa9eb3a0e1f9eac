package core

import (
	"math/rand"
	"testing"

	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/sim"
)

func simulateCompletes(t *testing.T, in *model.Instance, pol sched.Policy, reps int) float64 {
	t.Helper()
	sum, incomplete := sim.Estimate(in, pol, reps, 2_000_000, 123)
	if incomplete != 0 {
		t.Fatalf("%d/%d runs incomplete", incomplete, reps)
	}
	return sum.Mean
}

func TestSUUIObliviousEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(6)
		m := 1 + rng.Intn(4)
		in := randomInstance(n, m, rng)
		res, err := SUUIOblivious(in, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.Validate(in.N); err != nil {
			t.Fatal(err)
		}
		// Every job must have accumulated at least the peel threshold.
		mass := sched.MassPerJob(in, res.Schedule)
		for j, v := range mass {
			if v < 1.0/96-1e-9 {
				t.Errorf("trial %d: job %d core mass %v < 1/96", trial, j, v)
			}
		}
		mean := simulateCompletes(t, in, res.Schedule, 40)
		if mean < 1 {
			t.Errorf("mean makespan %v < 1", mean)
		}
	}
}

func TestSUUIObliviousRejectsDependentJobs(t *testing.T) {
	in := model.New(2, 1)
	in.P[0][0], in.P[0][1] = 0.5, 0.5
	in.Prec.MustEdge(0, 1)
	if _, err := SUUIOblivious(in, DefaultParams()); err == nil {
		t.Error("dependent jobs accepted")
	}
}

func TestSUUChainsEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 6; trial++ {
		n := 3 + rng.Intn(5)
		m := 1 + rng.Intn(3)
		// Two chains.
		half := n / 2
		c1 := make([]int, half)
		c2 := make([]int, n-half)
		for k := range c1 {
			c1[k] = k
		}
		for k := range c2 {
			c2[k] = half + k
		}
		in := chainInstance(n, m, [][]int{c1, c2}, rng)
		res, err := SUUChains(in, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.Validate(in.N); err != nil {
			t.Fatal(err)
		}
		if res.MassAchieved < 0.5-1e-9 {
			t.Errorf("mass achieved %v < 0.5", res.MassAchieved)
		}
		// Precedence windows on the final prefix (replication preserves
		// window order).
		if err := sched.CheckMassWindows(in, res.Schedule, 0.5); err != nil {
			t.Errorf("trial %d: %v", trial, err)
		}
		if res.Congestion > res.MaxLoad+1 {
			t.Errorf("congestion %d exceeds max load %d", res.Congestion, res.MaxLoad)
		}
		mean := simulateCompletes(t, in, res.Schedule, 30)
		if res.LowerBound > 0 && mean < res.LowerBound-1e-9 {
			t.Errorf("simulated mean %v below certified lower bound %v", mean, res.LowerBound)
		}
	}
}

func TestSUUChainsRejectsNonChainDag(t *testing.T) {
	in := model.New(3, 1)
	in.P[0][0], in.P[0][1], in.P[0][2] = 1, 1, 1
	in.Prec.MustEdge(0, 2)
	in.Prec.MustEdge(1, 2)
	if _, err := SUUChains(in, DefaultParams()); err == nil {
		t.Error("non-chain dag accepted")
	}
}

func TestSUUIndependentLPEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 6; trial++ {
		n := 2 + rng.Intn(6)
		m := 1 + rng.Intn(4)
		in := randomInstance(n, m, rng)
		res, err := SUUIndependentLP(in, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Schedule.Validate(in.N); err != nil {
			t.Fatal(err)
		}
		if res.MassAchieved < 0.5-1e-9 {
			t.Errorf("mass %v < 0.5", res.MassAchieved)
		}
		// The packed core never congests: one job per machine-step by
		// construction — implied by Validate plus assignment shape.
		mean := simulateCompletes(t, in, res.Schedule, 30)
		if mean < res.LowerBound-1e-9 {
			t.Errorf("mean %v below lower bound %v", mean, res.LowerBound)
		}
	}
}

func TestSUUForestOnAllClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	builders := []struct {
		name  string
		build func() *model.Instance
	}{
		{"independent", func() *model.Instance { return randomInstance(5, 3, rng) }},
		{"chains", func() *model.Instance {
			return chainInstance(5, 2, [][]int{{0, 1, 2}, {3, 4}}, rng)
		}},
		{"out-tree", func() *model.Instance {
			in := randomInstance(7, 3, rng)
			for v := 1; v < 7; v++ {
				in.Prec.MustEdge(rng.Intn(v), v)
			}
			return in
		}},
		{"in-tree", func() *model.Instance {
			in := randomInstance(7, 3, rng)
			for v := 1; v < 7; v++ {
				in.Prec.MustEdge(v, rng.Intn(v))
			}
			return in
		}},
		{"mixed-forest", func() *model.Instance {
			in := randomInstance(6, 2, rng)
			in.Prec.MustEdge(0, 1)
			in.Prec.MustEdge(0, 2)
			in.Prec.MustEdge(3, 5)
			in.Prec.MustEdge(4, 5)
			return in
		}},
		{"general-dag-fallback", func() *model.Instance {
			in := randomInstance(6, 2, rng)
			in.Prec.MustEdge(0, 2)
			in.Prec.MustEdge(1, 2)
			in.Prec.MustEdge(2, 3)
			in.Prec.MustEdge(2, 4)
			in.Prec.MustEdge(3, 5)
			in.Prec.MustEdge(4, 5)
			return in
		}},
	}
	for _, b := range builders {
		t.Run(b.name, func(t *testing.T) {
			in := b.build()
			res, err := SUUForest(in, DefaultParams())
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Schedule.Validate(in.N); err != nil {
				t.Fatal(err)
			}
			if err := res.Decomposition.Validate(in.Prec); err != nil {
				t.Fatal(err)
			}
			if res.MassAchieved < 0.5-1e-9 {
				t.Errorf("mass %v < 0.5", res.MassAchieved)
			}
			if err := sched.CheckMassWindows(in, res.Schedule, 0.5); err != nil {
				t.Error(err)
			}
			mean := simulateCompletes(t, in, res.Schedule, 25)
			if mean < res.LowerBound-1e-9 {
				t.Errorf("mean %v below lower bound %v", mean, res.LowerBound)
			}
		})
	}
}

func TestBaselinePoliciesComplete(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	in := randomInstance(5, 3, rng)
	in.Prec.MustEdge(0, 1)
	in.Prec.MustEdge(1, 2)
	pols := map[string]sched.Policy{
		"greedy-maxp": &GreedyMaxPPolicy{In: in},
		"round-robin": &RoundRobinPolicy{In: in},
		"all-on-one":  &AllOnOnePolicy{In: in},
		"random":      &RandomPolicy{In: in, Seed: 1},
		"adaptive":    &AdaptivePolicy{In: in},
	}
	for name, pol := range pols {
		t.Run(name, func(t *testing.T) {
			mean := simulateCompletes(t, in, pol, 25)
			if mean < 3 {
				t.Errorf("%s: mean %v below chain length 3", name, mean)
			}
		})
	}
}

func TestBuildPseudoWindows(t *testing.T) {
	// Chain 0→1 on 2 machines; x gives job0: m0×2, m1×1; job1: m1×3.
	in := model.New(2, 2)
	in.P[0][0], in.P[1][0] = 0.4, 0.3
	in.P[0][1], in.P[1][1] = 0.0, 0.2
	in.Prec.MustEdge(0, 1)
	x := [][]int{{2, 0}, {1, 3}}
	p := BuildPseudo(in, [][]int{{0, 1}}, x)
	if len(p.Tracks) != 1 {
		t.Fatal("want a single track")
	}
	tr := p.Tracks[0]
	// L0 = 2, L1 = 3 → track length 5; job 1 starts at step 2.
	if tr.Len() != 5 {
		t.Fatalf("track length %d, want 5", tr.Len())
	}
	for s := 0; s < 2; s++ {
		for i, j := range tr.At(s) {
			if j == 1 {
				t.Errorf("job 1 scheduled at step %d machine %d inside job 0's window", s, i)
			}
		}
	}
	if tr.At(2)[1] != 1 || tr.At(4)[1] != 1 {
		t.Error("job 1 window misplaced")
	}
	// Flatten of a single track must be congestion-free and identical in
	// per-job mass.
	flat := p.Flatten()
	if flat.Len() != 5 {
		t.Errorf("flatten changed single-track length: %d", flat.Len())
	}
}

func TestPackSequentialShape(t *testing.T) {
	in := model.New(3, 2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			in.P[i][j] = 0.5
		}
	}
	x := [][]int{{2, 1, 0}, {0, 0, 4}}
	o := PackSequential(in, x)
	if o.Len() != 4 {
		t.Fatalf("length %d, want max load 4", o.Len())
	}
	if err := o.Validate(3); err != nil {
		t.Fatal(err)
	}
	mass := sched.MassPerJob(in, o)
	if mass[0] != 1.0 || mass[1] != 0.5 || mass[2] != 2.0 {
		t.Errorf("mass=%v", mass)
	}
}

// TestRandomPolicyDeterministicAcrossWorkers pins the random baseline's
// draws to (seed, step, eligible set): one policy shared by 1, 2 and 4
// estimation workers gives bit-identical summaries, and so does a
// second call on it.
func TestRandomPolicyDeterministicAcrossWorkers(t *testing.T) {
	in := randomInstance(8, 3, rand.New(rand.NewSource(83)))
	pol := &RandomPolicy{In: in, Seed: 3}
	want, incomplete := sim.EstimateParallel(in, pol, 400, 100_000, 9, 1)
	if incomplete != 0 {
		t.Fatalf("%d of 400 runs incomplete", incomplete)
	}
	for _, workers := range []int{1, 2, 4} {
		got, _, eng := sim.EstimateParallelInfo(in, pol, 400, 100_000, 9, workers)
		if got != want || eng.Workers != workers {
			t.Errorf("%d workers (ran %d): summary %+v, 1 worker's first call %+v", workers, eng.Workers, got, want)
		}
	}
}

// TestBaselineAssignAllocations pins the baselines' step cost: with
// every job of a 12×4 instance eligible, Assign allocates only the
// assignment it returns, for round-robin and random as for greedy.
func TestBaselineAssignAllocations(t *testing.T) {
	in := randomInstance(12, 4, rand.New(rand.NewSource(89)))
	st := &sched.State{Unfinished: make([]bool, in.N), Eligible: make([]bool, in.N), Step: 5}
	for j := range st.Eligible {
		st.Unfinished[j], st.Eligible[j] = true, true
	}
	for name, pol := range map[string]sched.Policy{
		"greedy-maxp": &GreedyMaxPPolicy{In: in},
		"round-robin": &RoundRobinPolicy{In: in},
		"random":      &RandomPolicy{In: in, Seed: 1},
	} {
		if allocs := testing.AllocsPerRun(100, func() { pol.Assign(st) }); allocs != 1 {
			t.Errorf("%s: %v allocations per Assign, want 1 (the assignment)", name, allocs)
		}
	}
}
