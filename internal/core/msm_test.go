package core

import (
	"math"
	"math/rand"
	"testing"

	"suu/internal/model"
	"suu/internal/sched"
)

func allActive(n int) []bool {
	a := make([]bool, n)
	for i := range a {
		a[i] = true
	}
	return a
}

func randomInstance(n, m int, rng *rand.Rand) *model.Instance {
	in := model.New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			in.P[i][j] = rng.Float64()
		}
	}
	// Guarantee every job has a capable machine.
	for j := 0; j < n; j++ {
		in.P[rng.Intn(m)][j] = 0.1 + 0.9*rng.Float64()
	}
	return in
}

func TestMSMAlgIsValidAssignment(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := randomInstance(5, 4, rng)
	f := MSMAlg(in, allActive(5))
	if len(f) != in.M {
		t.Fatalf("assignment length %d", len(f))
	}
	// Per-job raw mass must stay <= 1 (greedy invariant).
	raw := make([]float64, in.N)
	for i, j := range f {
		if j == sched.Idle {
			continue
		}
		if j < 0 || j >= in.N {
			t.Fatalf("invalid job %d", j)
		}
		raw[j] += in.P[i][j]
	}
	for j, v := range raw {
		if v > 1+1e-9 {
			t.Errorf("job %d over-massed: %v", j, v)
		}
	}
}

func TestMSMAlgRespectsActiveSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := randomInstance(4, 3, rng)
	active := []bool{true, false, true, false}
	f := MSMAlg(in, active)
	for _, j := range f {
		if j != sched.Idle && !active[j] {
			t.Errorf("inactive job %d assigned", j)
		}
	}
}

// Theorem 3.2: MSM-ALG achieves at least 1/3 of the optimum.
func TestMSMAlgThirdApproximation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	worst := 1.0
	for trial := 0; trial < 150; trial++ {
		n := 1 + rng.Intn(4)
		m := 1 + rng.Intn(4)
		in := randomInstance(n, m, rng)
		active := allActive(n)
		got := SumMass(in, MSMAlg(in, active))
		_, opt := BruteForceMSM(in, active)
		if opt == 0 {
			continue
		}
		ratio := got / opt
		if ratio < worst {
			worst = ratio
		}
		if ratio < 1.0/3-1e-9 {
			t.Fatalf("trial %d: ratio %v below 1/3 (got %v, opt %v)", trial, ratio, got, opt)
		}
	}
	t.Logf("worst MSM ratio over trials: %.3f", worst)
}

func TestSumMassCapsAtOne(t *testing.T) {
	in := model.New(1, 3)
	in.P[0][0], in.P[1][0], in.P[2][0] = 0.9, 0.9, 0.9
	f := sched.Assignment{0, 0, 0}
	if v := SumMass(in, f); v != 1 {
		t.Errorf("SumMass=%v, want capped 1", v)
	}
}

func TestBruteForceMatchesHandOptimum(t *testing.T) {
	// One job, two machines 0.6/0.5: optimum is both machines (mass 1).
	in := model.New(1, 2)
	in.P[0][0], in.P[1][0] = 0.6, 0.5
	_, opt := BruteForceMSM(in, allActive(1))
	if math.Abs(opt-1) > 1e-12 {
		t.Errorf("opt=%v, want 1", opt)
	}
	// Two jobs, one machine 0.6/0.9: optimum picks job 1 (0.9).
	in2 := model.New(2, 1)
	in2.P[0][0], in2.P[0][1] = 0.6, 0.9
	_, opt2 := BruteForceMSM(in2, allActive(2))
	if math.Abs(opt2-0.9) > 1e-12 {
		t.Errorf("opt=%v, want 0.9", opt2)
	}
}

func TestAdaptivePolicyAssignsEligibleOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := randomInstance(4, 3, rng)
	in.Prec.MustEdge(0, 1)
	pol := &AdaptivePolicy{In: in}
	st := &sched.State{
		Unfinished: []bool{true, true, true, true},
		Eligible:   []bool{true, false, true, true},
	}
	f := pol.Assign(st)
	for _, j := range f {
		if j == 1 {
			t.Error("adaptive policy assigned ineligible job")
		}
	}
}

func TestMSMExtCapacityAndMass(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(6)
		m := 1 + rng.Intn(5)
		tt := 1 + rng.Intn(20)
		in := randomInstance(n, m, rng)
		x := MSMExt(in, allActive(n), tt)
		for i := 0; i < m; i++ {
			total := 0
			for j := 0; j < n; j++ {
				if x[i][j] < 0 {
					t.Fatalf("negative count")
				}
				total += x[i][j]
			}
			if total > tt {
				t.Fatalf("machine %d over capacity: %d > %d", i, total, tt)
			}
		}
		mass := MassOfCounts(in, x)
		for j, v := range mass {
			if v > 1+1e-9 {
				t.Errorf("trial %d: job %d mass %v exceeds 1", trial, j, v)
			}
		}
	}
}

// With ample capacity, MSM-E-ALG must give every job constant mass
// (here: at least min(1-pmax, ...) — we check the weaker useful fact
// that every job reaches the SUU-I-OBL peel threshold).
func TestMSMExtAmpleCapacityCoversAllJobs(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	in := randomInstance(6, 3, rng)
	x := MSMExt(in, allActive(6), 4000)
	mass := MassOfCounts(in, x)
	for j, v := range mass {
		if v < 1.0/96 {
			t.Errorf("job %d mass %v below peel threshold despite huge t", j, v)
		}
	}
}

func TestScheduleFromCountsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	in := randomInstance(4, 3, rng)
	tt := 11
	x := MSMExt(in, allActive(4), tt)
	o := ScheduleFromCounts(in, x, tt)
	if o.Len() != tt {
		t.Fatalf("length %d, want %d", o.Len(), tt)
	}
	if err := o.Validate(in.N); err != nil {
		t.Fatal(err)
	}
	// Count matrix recovered from the schedule must equal x.
	got := make([][]int, in.M)
	for i := range got {
		got[i] = make([]int, in.N)
	}
	for _, a := range o.Steps() {
		for i, j := range a {
			if j != sched.Idle {
				got[i][j]++
			}
		}
	}
	for i := range x {
		for j := range x[i] {
			if got[i][j] != x[i][j] {
				t.Errorf("count[%d][%d]=%d, want %d", i, j, got[i][j], x[i][j])
			}
		}
	}
}

func TestMSMExtZeroLength(t *testing.T) {
	in := model.New(2, 2)
	in.P[0][0], in.P[1][1] = 0.5, 0.5
	x := MSMExt(in, allActive(2), 0)
	for i := range x {
		for _, c := range x[i] {
			if c != 0 {
				t.Error("nonzero count with t=0")
			}
		}
	}
}
