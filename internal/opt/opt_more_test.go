package opt

import (
	"math"
	"math/rand"
	"testing"

	"suu/internal/model"
	"suu/internal/sched"
)

func TestTransitionsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(5)
		m := 1 + rng.Intn(3)
		in := model.New(n, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				in.P[i][j] = rng.Float64()
			}
		}
		if rng.Intn(2) == 0 && n >= 2 {
			in.Prec.MustEdge(0, 1)
		}
		s := uint64(1)<<uint(n) - 1
		a := make(sched.Assignment, m)
		for i := range a {
			a[i] = rng.Intn(n)
		}
		total := 0.0
		for _, tr := range Transitions(in, s, a) {
			if tr.Prob < 0 {
				t.Fatalf("negative probability")
			}
			if tr.Next&^s != 0 {
				t.Fatalf("transition adds jobs: %b -> %b", s, tr.Next)
			}
			total += tr.Prob
		}
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("trial %d: transition probabilities sum to %v", trial, total)
		}
	}
}

func TestTransitionsRespectEligibility(t *testing.T) {
	// Assigning the machine to an ineligible job must be a no-op.
	in := model.New(2, 1)
	in.P[0][0], in.P[0][1] = 0.5, 0.5
	in.Prec.MustEdge(0, 1)
	trs := Transitions(in, 0b11, sched.Assignment{1})
	if len(trs) != 1 || trs[0].Next != 0b11 || trs[0].Prob != 1 {
		t.Errorf("ineligible assignment produced transitions %v", trs)
	}
}

// Adding a machine can never increase the optimal expected makespan.
func TestOptimalMonotoneInMachines(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 8; trial++ {
		n := 2 + rng.Intn(3)
		in := model.New(n, 1)
		for j := 0; j < n; j++ {
			in.P[0][j] = 0.2 + 0.7*rng.Float64()
		}
		_, v1, err := OptimalRegimen(in)
		if err != nil {
			t.Fatal(err)
		}
		in2 := model.New(n, 2)
		for j := 0; j < n; j++ {
			in2.P[0][j] = in.P[0][j]
			in2.P[1][j] = 0.1 + 0.8*rng.Float64()
		}
		_, v2, err := OptimalRegimen(in2)
		if err != nil {
			t.Fatal(err)
		}
		if v2 > v1+1e-9 {
			t.Errorf("trial %d: extra machine worsened OPT: %v -> %v", trial, v1, v2)
		}
	}
}

// Raising a probability can never increase the optimal value.
func TestOptimalMonotoneInProbabilities(t *testing.T) {
	in := model.New(2, 2)
	in.P[0][0], in.P[0][1] = 0.3, 0.4
	in.P[1][0], in.P[1][1] = 0.5, 0.2
	_, v1, err := OptimalRegimen(in)
	if err != nil {
		t.Fatal(err)
	}
	in.P[0][0] = 0.9
	_, v2, err := OptimalRegimen(in)
	if err != nil {
		t.Fatal(err)
	}
	if v2 > v1+1e-9 {
		t.Errorf("probability increase worsened OPT: %v -> %v", v1, v2)
	}
}

func TestStateCountChainVsIndependent(t *testing.T) {
	// A chain of n jobs has n+1 closed states; independent jobs have 2^n.
	n := 5
	chain := model.New(n, 1)
	indep := model.New(n, 1)
	for j := 0; j < n; j++ {
		chain.P[0][j] = 1
		indep.P[0][j] = 1
		if j > 0 {
			chain.Prec.MustEdge(j-1, j)
		}
	}
	c1, err := StateCount(chain)
	if err != nil || c1 != n+1 {
		t.Errorf("chain states=%d err=%v, want %d", c1, err, n+1)
	}
	c2, err := StateCount(indep)
	if err != nil || c2 != 1<<n {
		t.Errorf("independent states=%d err=%v, want %d", c2, err, 1<<n)
	}
}

// The optimal regimen of a two-job symmetric instance should gang both
// machines when only one job remains.
func TestOptimalGangsOnLastJob(t *testing.T) {
	in := model.New(2, 2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			in.P[i][j] = 0.3
		}
	}
	reg, _, err := OptimalRegimen(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []uint64{0b01, 0b10} {
		a := reg.F[s]
		job := 0
		if s == 0b10 {
			job = 1
		}
		for i, got := range a {
			if got != job {
				t.Errorf("state %b machine %d assigned %d, want %d", s, i, got, job)
			}
		}
	}
}
