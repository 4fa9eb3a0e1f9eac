package sim

import (
	"math"
	"runtime"
	"testing"

	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/workload"
)

// chainsFixture builds a chains instance with a hand-rolled oblivious
// schedule (windows of ganged steps per job plus a round-robin tail),
// exercising prefix, tail, and precedence paths of both engines.
func chainsFixture() (*model.Instance, *sched.Oblivious) {
	in := workload.Chains(workload.Config{Jobs: 12, Machines: 4, Seed: 5}, 3)
	order, err := in.Prec.TopoOrder()
	if err != nil {
		panic(err)
	}
	var steps []sched.Assignment
	for _, j := range order {
		for k := 0; k < 4; k++ {
			a := make(sched.Assignment, in.M)
			for i := range a {
				a[i] = j
			}
			steps = append(steps, a)
		}
	}
	return in, sched.NewOblivious(in.M, steps, &sched.TopoRoundRobin{M: in.M, Order: order})
}

// TestCompiledMatchesStepEngine pins the compiled oblivious engine to
// the generic step engine: the same schedule run through a PolicyFunc
// wrapper (which disables compilation) must produce the same makespan
// distribution up to Monte Carlo error.
func TestCompiledMatchesStepEngine(t *testing.T) {
	// Pin the scalar compiled engine: at these rep counts dispatch would
	// select the lane engine, whose parity is lane_test.go's job.
	in, o := chainsFixture()
	generic := sched.PolicyFunc(func(st *sched.State) sched.Assignment { return o.At(st.Step) })

	const reps, cap = 4000, 100000
	fast, fastInc, _ := EstimateInfoLanes(in, o, reps, cap, 21, false)
	slow, slowInc, _ := EstimateParallelInfo(in, generic, reps, cap, 21, 1)
	if fastInc != 0 || slowInc != 0 {
		t.Fatalf("incomplete runs: compiled %d, generic %d", fastInc, slowInc)
	}
	tol := 3*(fast.HalfWidth95+slow.HalfWidth95) + 1e-9
	if math.Abs(fast.Mean-slow.Mean) > tol {
		t.Errorf("compiled mean %v vs step-engine mean %v (tol %v)", fast.Mean, slow.Mean, tol)
	}
}

// TestCompiledTailContinuation forces repetitions past a short prefix
// so the compiled engine's tail continuation runs, and checks it
// still completes and matches the generic engine.
func TestCompiledTailContinuation(t *testing.T) {
	in, o := chainsFixture()
	short := sched.NewOblivious(o.M, []sched.Assignment{o.At(0), o.At(1)}, o.Tail)
	generic := sched.PolicyFunc(func(st *sched.State) sched.Assignment { return short.At(st.Step) })

	const reps, cap = 2000, 100000
	fast, fastInc, _ := EstimateInfoLanes(in, short, reps, cap, 77, false) // the scalar walk; lanes are lane_test.go's job
	slow, slowInc, _ := EstimateParallelInfo(in, generic, reps, cap, 77, 1)
	if fastInc != 0 || slowInc != 0 {
		t.Fatalf("incomplete runs: compiled %d, generic %d", fastInc, slowInc)
	}
	tol := 3*(fast.HalfWidth95+slow.HalfWidth95) + 1e-9
	if math.Abs(fast.Mean-slow.Mean) > tol {
		t.Errorf("compiled mean %v vs step-engine mean %v (tol %v)", fast.Mean, slow.Mean, tol)
	}
}

// TestEstimateDeterministicAcrossConcurrency is the engine's central
// reproducibility contract: the summary and incomplete count are
// byte-identical at every concurrency, for both the compiled and the
// generic engine.
func TestEstimateDeterministicAcrossConcurrency(t *testing.T) {
	in, o := chainsFixture()
	generic := sched.PolicyFunc(func(st *sched.State) sched.Assignment { return o.At(st.Step) })
	for name, pol := range map[string]sched.Policy{"compiled": o, "generic": generic} {
		want, wantInc, _ := EstimateParallelInfo(in, pol, 1500, 100000, 9, 1)
		for _, conc := range []int{4, runtime.GOMAXPROCS(0), 0} {
			got, gotInc, _ := EstimateParallelInfo(in, pol, 1500, 100000, 9, conc)
			if got != want || gotInc != wantInc {
				t.Errorf("%s engine, concurrency %d: %+v/%d differs from sequential %+v/%d",
					name, conc, got, gotInc, want, wantInc)
			}
		}
	}
}

// TestRunnerStepLoopAllocationFree proves the generic step loop
// allocates nothing per run once the runner exists, for both an
// oblivious schedule (prefix + cached tail) and a regimen.
func TestRunnerStepLoopAllocationFree(t *testing.T) {
	in, o := chainsFixture()
	r := NewRunner(in, o)
	var rng Stream
	rng.Reseed(1, 0)
	r.Run(100000, &rng) // warm caches (tail assignments)
	allocs := testing.AllocsPerRun(50, func() {
		rng.Reseed(1, 1)
		if makespan, done := r.Run(100000, &rng); !done || makespan <= 0 {
			t.Fatal("run failed")
		}
	})
	if allocs != 0 {
		t.Errorf("oblivious step loop: %v allocs/run, want 0", allocs)
	}

	reg := sched.NewRegimen(2, 1)
	small := model.New(2, 1)
	small.SetAt(0, 0, 0.5)
	small.SetAt(0, 1, 0.5)
	reg.F[sched.Key([]bool{true, true})] = sched.Assignment{0}
	reg.F[sched.Key([]bool{false, true})] = sched.Assignment{1}
	rr := NewRunner(small, reg)
	rr.Run(100000, &rng)
	allocs = testing.AllocsPerRun(50, func() {
		rng.Reseed(2, 1)
		rr.Run(100000, &rng)
	})
	if allocs != 0 {
		t.Errorf("regimen step loop: %v allocs/run, want 0", allocs)
	}
}

// TestCompiledRepAllocationFree proves a compiled-engine repetition
// allocates nothing after compilation (runs stay inside the prefix).
func TestCompiledRepAllocationFree(t *testing.T) {
	in, o := chainsFixture()
	c := Prepare(in, o).compiled
	if c == nil {
		t.Fatal("compile failed")
	}
	w := c.newRunner()
	var rng Stream
	rng.Reseed(1, 0)
	w.run(100000, &rng)
	if w.cont != nil {
		t.Fatal("fixture unexpectedly hit the tail; enlarge the prefix")
	}
	allocs := testing.AllocsPerRun(50, func() {
		rng.Reseed(1, 1)
		w.run(100000, &rng)
	})
	if allocs != 0 {
		t.Errorf("compiled repetition: %v allocs/run, want 0", allocs)
	}
}

// TestEstimateParallelDesyncedP covers the lazy Flat rebuild under
// concurrency: an instance whose P rows were replaced wholesale must
// be re-flattened once, before workers spawn (run under -race in CI).
func TestEstimateParallelDesyncedP(t *testing.T) {
	in := model.New(4, 2)
	in.P = [][]float64{{0.5, 0.5, 0.5, 0.5}, {0.5, 0.5, 0.5, 0.5}} // desync the backing
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
	sum, inc, _ := EstimateParallelInfo(in, pol, 1200, 10000, 5, 4)
	if inc != 0 || sum.N != 1200 {
		t.Fatalf("sum=%+v inc=%d", sum, inc)
	}
	seq, seqInc, _ := EstimateParallelInfo(in, pol, 1200, 10000, 5, 1)
	if sum != seq || inc != seqInc {
		t.Errorf("parallel %+v differs from sequential %+v", sum, seq)
	}
}

// TestEstimateStreamingMemory keeps Estimate's aggregation honest: a
// large-reps call must not materialize the sample. (Guarded by the
// chunked-accumulator design; this is a regression tripwire on the
// accumulator count.)
func TestEstimateStreamingMemory(t *testing.T) {
	if estimateChunk < 64 {
		t.Fatalf("estimateChunk %d suspiciously small", estimateChunk)
	}
	in := model.New(1, 1)
	in.SetAt(0, 0, 0.9)
	pol := sched.NewOblivious(1, []sched.Assignment{{0}}, nil)
	sum, inc, _ := EstimateParallelInfo(in, pol, 100_000, 1000, 3, 1)
	if inc != 0 || sum.N != 100_000 {
		t.Fatalf("sum=%+v inc=%d", sum, inc)
	}
	if sum.Mean < 1 || sum.Mean > 1.3 {
		t.Errorf("geometric(0.9) mean %v out of range", sum.Mean)
	}
}
