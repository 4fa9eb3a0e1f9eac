package sim

import (
	"testing"

	"suu/internal/model"
	"suu/internal/sched"
)

func parallelFixture() (*model.Instance, sched.Policy) {
	in := model.New(5, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			in.P[i][j] = 0.2 + 0.1*float64(i+j)/8
		}
	}
	in.Prec.MustEdge(0, 1)
	o := sched.NewOblivious(3, []sched.Assignment{{0, 2, 3}, {0, 4, 4}}, &sched.TopoRoundRobin{M: 3, Order: []int{0, 1, 2, 3, 4}})
	return in, o
}

func TestEstimateParallelMatchesSequential(t *testing.T) {
	in, pol := parallelFixture()
	seq, seqInc, _ := EstimateParallelInfo(in, pol, 500, 100000, 42, 1)
	for _, conc := range []int{0, 2, 7} {
		par, parInc, _ := EstimateParallelInfo(in, pol, 500, 100000, 42, conc)
		if par.Mean != seq.Mean || par.Min != seq.Min || par.Max != seq.Max || par.StdDev != seq.StdDev {
			t.Fatalf("concurrency %d: summary differs: %+v vs %+v", conc, par, seq)
		}
		if parInc != seqInc {
			t.Fatalf("concurrency %d: incomplete %d vs %d", conc, parInc, seqInc)
		}
	}
}

func TestEstimateParallelStatefulFallsBack(t *testing.T) {
	in, pol0 := parallelFixture()
	// A policy implementing OutcomeObserver must run sequentially and
	// still produce a result; Parallelizable announces the fallback.
	pol := &observingPolicy{m: in.M}
	if Parallelizable(pol) {
		t.Error("observing policy reported parallelizable")
	}
	if !Parallelizable(pol0) {
		t.Error("oblivious schedule reported non-parallelizable")
	}
	sum, inc, _ := EstimateParallelInfo(in, pol, 50, 100000, 1, 4)
	if sum.N != 50 {
		t.Fatalf("runs %d", sum.N)
	}
	if pol.observed == 0 {
		t.Error("observer never called")
	}
	// The fallback must be exactly the sequential path.
	pol2 := &observingPolicy{m: in.M}
	seq, seqInc, _ := EstimateParallelInfo(in, pol2, 50, 100000, 1, 1)
	if sum != seq || inc != seqInc {
		t.Errorf("fallback %+v/%d differs from sequential %+v/%d", sum, inc, seq, seqInc)
	}
}

type observingPolicy struct {
	m        int
	observed int
}

func (p *observingPolicy) Assign(st *sched.State) sched.Assignment {
	a := sched.NewIdle(p.m)
	for j, e := range st.Eligible {
		if e {
			for i := range a {
				a[i] = j
			}
			break
		}
	}
	return a
}

func (p *observingPolicy) Observe(played sched.Assignment, completed []bool) {
	p.observed++
}

func TestEstimateParallelRepsGuard(t *testing.T) {
	in, pol := parallelFixture()
	defer func() {
		if recover() == nil {
			t.Error("no panic for reps=0")
		}
	}()
	EstimateParallelInfo(in, pol, 0, 10, 1, 2)
}
