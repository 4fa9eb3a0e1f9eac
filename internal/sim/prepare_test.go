package sim

import (
	"runtime"
	"slices"
	"testing"

	"suu/internal/core"
	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/workload"
)

// TestPreparedBitIdenticalToColdPath pins the Prepared contract: an
// estimate served from a cached, pre-compiled engine must equal the
// one-shot estimator's bit for bit — across policy kinds (oblivious,
// stationary adaptive), repetition counts on both sides of the
// bit-parallel auto floor, and worker counts. The repetition counts
// also straddle the adaptive 64×reps profitability cap, so the
// per-call budget check in Prepared.estimator is exercised, not just
// the happy path.
func TestPreparedBitIdenticalToColdPath(t *testing.T) {
	oblIn, obl := chainsFixture()
	adIn := workload.Independent(workload.Config{Jobs: 10, Machines: 3, Seed: 42})

	cases := []struct {
		name string
		in   *model.Instance
		pol  sched.Policy
	}{
		{"oblivious", oblIn, obl},
		{"adaptive", adIn, &core.AdaptivePolicy{In: adIn}},
	}
	for _, c := range cases {
		p := Prepare(c.in, c.pol)
		// Reps below and above BitParallelAutoMinReps, and small enough
		// that 64×reps undercuts the default adaptive budget — at 2 reps
		// also the adaptive fixture's state count.
		for _, reps := range []int{2, 7, 60, 256, 500} {
			for _, workers := range []int{1, 4} {
				wantSum, wantInc, wantEng := EstimateParallelInfo(c.in, c.pol, reps, 10000, 9, workers)
				gotSum, gotInc, gotEng := p.EstimateParallelInfo(reps, 10000, 9, workers)
				if gotSum != wantSum || gotInc != wantInc {
					t.Fatalf("%s reps=%d workers=%d: prepared %+v/%d, cold %+v/%d",
						c.name, reps, workers, gotSum, gotInc, wantSum, wantInc)
				}
				if gotEng.Engine != wantEng.Engine || gotEng.Lanes != wantEng.Lanes ||
					gotEng.States != wantEng.States {
					t.Fatalf("%s reps=%d: prepared engine %+v, cold %+v", c.name, reps, gotEng, wantEng)
				}
			}
		}
	}
}

// TestPreparedEngineRecord checks the build-time record: the compiled
// artifact kind, the adaptive state count, and a sane size estimate.
func TestPreparedEngineRecord(t *testing.T) {
	oblIn, obl := chainsFixture()
	p := Prepare(oblIn, obl)
	if eng, _, _ := p.Engine(); eng != EngineCompiled {
		t.Fatalf("oblivious prepared engine = %q, want %q", eng, EngineCompiled)
	}
	if p.SizeBytes() <= 256 {
		t.Fatalf("oblivious SizeBytes = %d, want > nominal", p.SizeBytes())
	}

	adIn := workload.Independent(workload.Config{Jobs: 10, Machines: 3, Seed: 42})
	// A stationary policy builds nothing: its calls memoize states.
	p = Prepare(adIn, &core.AdaptivePolicy{In: adIn})
	eng, states, _ := p.Engine()
	if eng != EngineCompiledAdaptive || states != 0 || p.SizeBytes() != 256 {
		t.Fatalf("adaptive prepared engine = %q states=%d size=%d, want %q, 0 states, nominal size",
			eng, states, p.SizeBytes(), EngineCompiledAdaptive)
	}

	// An observer policy compiles nothing but still estimates.
	lp := core.NewLearningPolicy(adIn, 0.5)
	p = Prepare(adIn, lp)
	if eng, _, _ := p.Engine(); eng != "" {
		t.Fatalf("observer prepared engine = %q, want none", eng)
	}
	wantSum, wantInc, _ := EstimateParallelInfo(adIn, core.NewLearningPolicy(adIn, 0.5), 30, 10000, 3, 1)
	gotSum, gotInc, gotEng := p.EstimateParallelInfo(30, 10000, 3, 1)
	if gotSum != wantSum || gotInc != wantInc || gotEng.Engine != EngineGeneric {
		t.Fatalf("observer prepared estimate %+v/%d engine %q, cold %+v/%d",
			gotSum, gotInc, gotEng.Engine, wantSum, wantInc)
	}
}

// TestPrepareAllocation pins what Prepare allocates against what it
// charges: on independent 64x16 and on serve's independent 24x6 shape
// it allocates under 2% of its SizeBytes charge, since its tables hold
// one entry per (job, run) while the charge counts every occurrence;
// tables of one entry per occurrence would allocate about 100% of it.
// The pin reads the median of nine calls. Every table is sized exactly:
// no capacity past its length.
func TestPrepareAllocation(t *testing.T) {
	for _, in := range []*model.Instance{
		workload.Independent(workload.Config{Jobs: 64, Machines: 16, Seed: 3}),
		workload.Independent(workload.Config{Jobs: 24, Machines: 6, Seed: 21}),
	} {
		o := autoOblivious(t, in)
		p := Prepare(in, o)
		size := p.SizeBytes()
		if c := p.compiled; cap(c.runs) != len(c.runs) || cap(c.offs) != len(c.offs) || cap(c.topo) != len(c.topo) {
			t.Errorf("%dx%d: Prepare's tables have spare capacity", in.N, in.M)
		}
		perCall := make([]int64, 9)
		var before, after runtime.MemStats
		for i := range perCall {
			runtime.ReadMemStats(&before)
			Prepare(in, o)
			runtime.ReadMemStats(&after)
			perCall[i] = int64(after.TotalAlloc - before.TotalAlloc)
		}
		slices.Sort(perCall)
		median := perCall[len(perCall)/2]
		t.Logf("%dx%d: Prepare allocates %d B in the median call, charges %d B", in.N, in.M, median, size)
		if median*50 >= size {
			t.Errorf("%dx%d: Prepare allocates %d B in the median call, want < SizeBytes/50 = %d B", in.N, in.M, median, size/50)
		}
	}
}
