package sim

import (
	"math"
	"math/rand"
	"testing"

	"suu/internal/model"
	"suu/internal/opt"
	"suu/internal/sched"
)

func allOnJob(m, j int) sched.Assignment {
	a := make(sched.Assignment, m)
	for i := range a {
		a[i] = j
	}
	return a
}

func TestDeterministicCompletes(t *testing.T) {
	in := model.New(2, 1)
	in.P[0][0], in.P[0][1] = 1, 1
	pol := sched.PolicyFunc(func(st *sched.State) sched.Assignment {
		for j, e := range st.Eligible {
			if e {
				return sched.Assignment{j}
			}
		}
		return sched.Assignment{sched.Idle}
	})
	res := Run(in, pol, 100, rand.New(rand.NewSource(1)))
	if !res.Completed || res.Makespan != 2 {
		t.Errorf("result=%+v, want completed in 2", res)
	}
}

func TestPrecedenceBlocksIneligible(t *testing.T) {
	// 0 ≺ 1. A policy that always assigns the machine to job 1 makes no
	// progress: job 1 is never eligible while 0 is unfinished.
	in := model.New(2, 1)
	in.P[0][0], in.P[0][1] = 1, 1
	in.Prec.MustEdge(0, 1)
	pol := sched.PolicyFunc(func(st *sched.State) sched.Assignment {
		return sched.Assignment{1}
	})
	res := Run(in, pol, 50, rand.New(rand.NewSource(1)))
	if res.Completed {
		t.Error("ineligible assignment should not progress")
	}
	if res.Mass[1] != 0 {
		t.Errorf("ineligible job accumulated mass %v", res.Mass[1])
	}
}

func TestMassAccounting(t *testing.T) {
	// One job, p=0 on the only machine: never completes, accumulates 0
	// mass per step... use p=0.5 but force completion off via rng? Use a
	// two-machine instance with p=0 for one machine.
	in := model.New(1, 2)
	in.P[0][0] = 0.0
	in.P[1][0] = 1.0
	pol := sched.PolicyFunc(func(st *sched.State) sched.Assignment {
		return sched.Assignment{0, 0}
	})
	res := Run(in, pol, 10, rand.New(rand.NewSource(1)))
	if !res.Completed || res.Makespan != 1 {
		t.Fatalf("res=%+v", res)
	}
	if math.Abs(res.Mass[0]-1.0) > 1e-12 {
		t.Errorf("mass=%v, want 1.0", res.Mass[0])
	}
}

func TestGeometricMeanMatchesTheory(t *testing.T) {
	in := model.New(1, 1)
	in.P[0][0] = 0.25
	pol := sched.PolicyFunc(func(st *sched.State) sched.Assignment {
		return sched.Assignment{0}
	})
	sum, incomplete, _ := EstimateParallelInfo(in, pol, 4000, 10000, 7, 1)
	if incomplete != 0 {
		t.Fatalf("%d incomplete runs", incomplete)
	}
	if math.Abs(sum.Mean-4) > 0.25 {
		t.Errorf("mean=%v, want ≈4", sum.Mean)
	}
}

func TestEstimateMatchesExactRegimen(t *testing.T) {
	in := model.New(2, 2)
	in.P[0][0], in.P[0][1] = 0.7, 0.2
	in.P[1][0], in.P[1][1] = 0.3, 0.6
	reg, want, err := opt.OptimalRegimen(in)
	if err != nil {
		t.Fatal(err)
	}
	sum, incomplete, _ := EstimateParallelInfo(in, reg, 6000, 100000, 11, 1)
	if incomplete != 0 {
		t.Fatalf("%d incomplete", incomplete)
	}
	if math.Abs(sum.Mean-want) > 4*sum.HalfWidth95+0.05 {
		t.Errorf("simulated %v vs exact %v", sum.Mean, want)
	}
}

func TestObliviousScheduleExecution(t *testing.T) {
	// Oblivious with a round-robin tail over a chain must complete.
	in := model.New(3, 2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			in.P[i][j] = 0.5
		}
	}
	in.Prec.MustEdge(0, 1)
	in.Prec.MustEdge(1, 2)
	o := sched.NewOblivious(2, []sched.Assignment{{0, 0}}, &sched.TopoRoundRobin{M: 2, Order: []int{0, 1, 2}})
	sum, incomplete, _ := EstimateParallelInfo(in, o, 300, 100000, 3, 1)
	if incomplete != 0 {
		t.Fatalf("%d incomplete", incomplete)
	}
	if sum.Mean < 3 {
		t.Errorf("mean %v below minimum possible 3", sum.Mean)
	}
}

func TestMassWithinHorizon(t *testing.T) {
	in := model.New(1, 1)
	in.P[0][0] = 0.3
	pol := sched.PolicyFunc(func(st *sched.State) sched.Assignment {
		return sched.Assignment{0}
	})
	// In 2 steps the job accumulates 0.3 (if it finishes in step 1) or
	// 0.6. Threshold 0.5 is reached iff the job fails step 1: prob 0.7.
	fr := MassWithinHorizon(in, pol, 2, 8000, 0.5, 13)
	if math.Abs(fr[0]-0.7) > 0.03 {
		t.Errorf("fraction=%v, want ≈0.7", fr[0])
	}
}

func TestRunDeterministicSeed(t *testing.T) {
	in := model.New(4, 2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 4; j++ {
			in.P[i][j] = 0.4
		}
	}
	pol := sched.PolicyFunc(func(st *sched.State) sched.Assignment {
		a := sched.NewIdle(2)
		k := 0
		for j, e := range st.Eligible {
			if e && k < 2 {
				a[k] = j
				k++
			}
		}
		return a
	})
	r1 := Run(in, pol, 1000, rand.New(rand.NewSource(99)))
	r2 := Run(in, pol, 1000, rand.New(rand.NewSource(99)))
	if r1.Makespan != r2.Makespan {
		t.Error("same seed, different makespans")
	}
}

func TestTheorem22MassProbability(t *testing.T) {
	// For the OPTIMAL regimen with expected makespan T, every job
	// accumulates mass >= 1/4 within 2T steps with probability >= 1/4.
	in := model.New(3, 2)
	in.P[0][0], in.P[0][1], in.P[0][2] = 0.6, 0.3, 0.2
	in.P[1][0], in.P[1][1], in.P[1][2] = 0.2, 0.5, 0.7
	reg, topt, err := opt.OptimalRegimen(in)
	if err != nil {
		t.Fatal(err)
	}
	horizon := int(math.Ceil(2 * topt))
	fr := MassWithinHorizon(in, reg, horizon, 4000, 0.25, 17)
	for j, f := range fr {
		if f < 0.25-0.02 {
			t.Errorf("job %d: Pr[mass>=1/4 within 2T] = %v < 1/4", j, f)
		}
	}
}
