package sim

import (
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"suu/internal/core"
	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/solve"
	"suu/internal/workload"
)

// TestLaneBernoulliOracleBit pins laneBernoulli's core property: a
// decided lane's outcome is identical whether it is drawn as part of
// the full 64-lane mask or alone — the property that makes the scalar
// one-lane-at-a-time oracle an exact replay of the lane engine. Also
// pins the p<=0 / p>=1 shortcuts and determinism.
func TestLaneBernoulliOracleBit(t *testing.T) {
	var tr Stream
	rng := rand.New(NewStream(SeedFor(7, "lane-bern")))
	ps := []float64{0, 1, 0.5, 0.25, 1e-9, 1 - 1e-9, 0.3, 0.9999, 0.317}
	for i := 0; i < 200; i++ {
		ps = append(ps, rng.Float64())
	}
	for i, p := range ps {
		gseed, a, b := int64(i), int64(i*3), int64(i%5)
		full := laneBernoulli(&tr, gseed, a, b, p, ^uint64(0))
		again := laneBernoulli(&tr, gseed, a, b, p, ^uint64(0))
		if full != again {
			t.Fatalf("p=%v: not deterministic: %x vs %x", p, full, again)
		}
		if p <= 0 && full != 0 {
			t.Fatalf("p=0 produced successes: %x", full)
		}
		if p >= 1 && full != ^uint64(0) {
			t.Fatalf("p=1 produced failures: %x", full)
		}
		for l := uint(0); l < LaneWidth; l++ {
			solo := laneBernoulli(&tr, gseed, a, b, p, uint64(1)<<l)
			if solo>>l&1 != full>>l&1 {
				t.Fatalf("p=%v lane %d: solo bit %d != full-mask bit %d",
					p, l, solo>>l&1, full>>l&1)
			}
		}
	}
}

// TestLaneBernoulliAcceptanceRate checks the drawn masks hit the
// target probability: the bit ladder compares each lane's uniform
// against p's exact binary expansion, so the empirical rate over many
// trials must sit within a generous normal CI of p.
func TestLaneBernoulliAcceptanceRate(t *testing.T) {
	var tr Stream
	const trials = 4000 // × 64 lanes
	for _, p := range []float64{0.25, 0.317, 0.5, 0.9, 0.0625, 0.993} {
		wins := 0
		for a := 0; a < trials; a++ {
			w := laneBernoulli(&tr, 11, int64(a), 0, p, ^uint64(0))
			for ; w != 0; w &= w - 1 {
				wins++
			}
		}
		n := float64(trials * LaneWidth)
		got := float64(wins) / n
		tol := 5 * math.Sqrt(p*(1-p)/n)
		if math.Abs(got-p) > tol {
			t.Errorf("p=%v: acceptance rate %v (tol %v)", p, got, tol)
		}
	}
}

// TestLaneObliviousMatchesScalarRemapExactly is the oblivious lane
// engine's exactness bar: identical stats.Summary and incomplete
// count to the scalar compiled walk replayed under the lane stream
// remap, for rep counts around and away from lane-width multiples, at
// workers 1/4/GOMAXPROCS.
func TestLaneObliviousMatchesScalarRemapExactly(t *testing.T) {
	in, o := chainsFixture()
	const cap, seed = 100000, 23
	for _, reps := range []int{1, 63, 64, 65, 256, 300, 1000} {
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			var engL, engO EngineUsed
			sL := summaryOf(t, in, o, reps, cap, seed, workers, lanesOn, &engL)
			sO := summaryOf(t, in, o, reps, cap, seed, workers, lanesOracle, &engO)
			if engL.Engine != EngineLane || engL.Lanes != LaneWidth {
				t.Fatalf("reps %d workers %d: lane engine reported %+v", reps, workers, engL)
			}
			if engO.Engine != EngineLane {
				t.Fatalf("oracle mode reported %+v", engO)
			}
			if sL != sO {
				t.Errorf("reps %d workers %d: lane %+v != oracle %+v", reps, workers, sL, sO)
			}
		}
	}
}

// summaryOf runs the parallel estimator under the given lane mode and
// returns the summary and incomplete count as one comparable value.
func summaryOf(t *testing.T, in *model.Instance, pol sched.Policy, reps, cap int, seed int64, workers int, mode laneMode, eng *EngineUsed) [2]interface{} {
	t.Helper()
	sum, inc, e := Prepare(in, pol).estimate(reps, cap, seed, workers, mode)
	*eng = e
	return [2]interface{}{sum, inc}
}

// TestLaneTailContinuation forces lanes past a short prefix so the
// lane engine's per-lane tail continuation runs, and pins it to the
// oracle (whose tail runs through the scalar walk's continueTail).
func TestLaneTailContinuation(t *testing.T) {
	in, o := chainsFixture()
	short := sched.NewOblivious(o.M, []sched.Assignment{o.At(0), o.At(1)}, o.Tail)
	const reps, cap, seed = 500, 100000, 41
	var engL, engO EngineUsed
	sL := summaryOf(t, in, short, reps, cap, seed, 1, lanesOn, &engL)
	sO := summaryOf(t, in, short, reps, cap, seed, 1, lanesOracle, &engO)
	if engL.Engine != EngineLane {
		t.Fatalf("engine %+v", engL)
	}
	if sL != sO {
		t.Errorf("tail continuation: lane %+v != oracle %+v", sL, sO)
	}
	if sL[1].(int) != 0 {
		t.Errorf("tail continuation left %d incomplete runs", sL[1].(int))
	}
}

// TestLaneStragglersMatchOracle pins the lanes that become eligible
// strictly inside a successor's span, each of which looks its
// predecessors' completion steps up in the events. A chain 0→1 runs on
// two machines: job 0 alone for two steps, then steps that alternate
// job 0 beside job 1 with job 1 alone, then job 0 alone. So job 0's
// completions land before job 1's span (early lanes), inside it, on a
// step that also trials job 1 (stragglers, whose first trial is the
// next step), and past it (dropped lanes). Every group, full or
// partial, must return the oracle's makespans and completed mask bit
// for bit, at caps inside, at and past the prefix, and lanes must
// straggle at every cap.
func TestLaneStragglersMatchOracle(t *testing.T) {
	in := model.New(2, 2)
	in.P[0] = []float64{0.3, 0.2}
	in.P[1] = []float64{0, 0.25}
	in.Prec.MustEdge(0, 1)
	steps := []sched.Assignment{{0, sched.Idle}, {0, sched.Idle}}
	for k := 0; k < 20; k++ {
		steps = append(steps, sched.Assignment{0, 1}, sched.Assignment{1, sched.Idle})
	}
	steps = append(steps, sched.Assignment{0, sched.Idle})
	o := sched.NewOblivious(2, steps, &sched.TopoRoundRobin{M: 2, Order: []int{0, 1}})
	c := Prepare(in, o).compiled
	// Job 1's first and last occurrences: a lane that completed job 0
	// on a step in [first, last) straggles.
	first, last := int32(2), int32(len(steps)-2)
	const seed = 17
	for _, cap := range []int{15, 30, len(steps), 100000} {
		w := newLaneOblivRunner(c, seed)
		oracle := &laneOblivOracle{r: c.newRunner(), seed: seed}
		stragglers := 0
		for g := int64(0); g < 64; g++ {
			cnt := LaneWidth
			if g%2 == 1 {
				cnt = 37
			}
			mk, completed := w.runGroup(g, cnt, cap)
			stragglers += bits.OnesCount64(w.winsBefore(0, last) &^ w.winsBefore(0, first))
			wantMK, wantCompleted := oracle.runGroup(g, cnt, cap)
			if !slices.Equal(mk, wantMK) || completed != wantCompleted {
				t.Fatalf("cap %d group %d: lanes %v completed %#x, oracle %v completed %#x", cap, g, mk, completed, wantMK, wantCompleted)
			}
		}
		w.release()
		if stragglers == 0 {
			t.Errorf("cap %d: no lane straggled; the fixture no longer reaches the lookup", cap)
		}
	}
}

// TestLaneParityFuzz hammers the lane/oracle equality with randomized
// instances: random dags and probability matrices with forced p=0 and
// p=1 entries, single-job instances, rep counts not divisible by 64,
// capped horizons that strand unfinished runs, and random oblivious
// prefixes over a topo round-robin tail. Run under -race in CI's
// engine group.
func TestLaneParityFuzz(t *testing.T) {
	rng := rand.New(NewStream(SeedFor(3, "lane-fuzz")))
	laneRuns := 0
	for iter := 0; iter < 60; iter++ {
		n := 1 + rng.Intn(12)
		m := 1 + rng.Intn(4)
		in := model.New(n, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				switch rng.Intn(8) {
				case 0:
					in.SetAt(i, j, 0) // forced certain-failure entry
				case 1:
					in.SetAt(i, j, 1) // forced certain-success entry
				default:
					in.SetAt(i, j, rng.Float64())
				}
			}
		}
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.25 {
					in.Prec.MustEdge(u, v)
				}
			}
		}
		reps := 1 + rng.Intn(200)
		cap := []int{5, 50, 100000}[rng.Intn(3)]
		seed := rng.Int63()
		workers := 1 + rng.Intn(4)

		order, err := in.Prec.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		steps := make([]sched.Assignment, 1+rng.Intn(3*n))
		for s := range steps {
			a := make(sched.Assignment, m)
			for i := range a {
				if rng.Intn(5) == 0 {
					a[i] = sched.Idle
				} else {
					a[i] = rng.Intn(n)
				}
			}
			steps[s] = a
		}
		pol := sched.NewOblivious(m, steps, &sched.TopoRoundRobin{M: m, Order: order})

		var engL, engO EngineUsed
		sL := summaryOf(t, in, pol, reps, cap, seed, workers, lanesOn, &engL)
		sO := summaryOf(t, in, pol, reps, cap, seed, workers, lanesOracle, &engO)
		if engL.Engine != engO.Engine {
			t.Fatalf("iter %d: engines diverged: %q vs %q", iter, engL.Engine, engO.Engine)
		}
		if engL.Lanes == LaneWidth {
			laneRuns++
		}
		if sL != sO {
			t.Errorf("iter %d (n=%d m=%d reps=%d cap=%d engine=%s): lane %+v != oracle %+v",
				iter, n, m, reps, cap, engL.Engine, sL, sO)
		}
	}
	if laneRuns < 30 {
		t.Errorf("only %d/60 fuzz cases exercised the lane engine; fixture drifted", laneRuns)
	}
}

// TestLaneAutoDispatchByRepCount pins the lane dispatch: the default
// switches on the BitParallelAutoMinReps floor, EstimateInfoLanes
// (false) pins the scalar walk, the test-only forced mode lanes any rep
// count, and neither the generic engine nor the compiled adaptive
// table ever lanes.
func TestLaneAutoDispatchByRepCount(t *testing.T) {
	in, o := chainsFixture()
	check := func(name string, eng EngineUsed, want string, wantLanes int) {
		t.Helper()
		if eng.Engine != want || eng.Lanes != wantLanes {
			t.Errorf("%s: engine %+v, want %s/lanes=%d", name, eng, want, wantLanes)
		}
	}
	_, _, eng := EstimateParallelInfo(in, o, BitParallelAutoMinReps-1, 100000, 3, 1)
	check("auto below floor", eng, EngineCompiled, 0)
	_, _, eng = EstimateParallelInfo(in, o, BitParallelAutoMinReps, 100000, 3, 1)
	check("auto at floor", eng, EngineLane, LaneWidth)
	_, _, eng = EstimateInfoLanes(in, o, 10000, 100000, 3, false)
	check("lanes=false", eng, EngineCompiled, 0)
	_, _, eng = EstimateInfoLanes(in, o, 10000, 100000, 3, true)
	check("lanes=true", eng, EngineLane, LaneWidth)
	_, _, eng = Prepare(in, o).estimate(10, 100000, 3, 1, lanesOn)
	check("forced on", eng, EngineLane, LaneWidth)

	generic := sched.PolicyFunc(func(st *sched.State) sched.Assignment { return o.At(st.Step) })
	_, _, eng = Prepare(in, generic).estimate(1000, 100000, 3, 1, lanesOn)
	check("generic policy", eng, EngineGeneric, 0)
	_, _, eng = Prepare(in, &core.AdaptivePolicy{In: in}).estimate(1000, 100000, 3, 1, lanesOn)
	check("adaptive policy", eng, EngineCompiledAdaptive, 0)
}

// TestLaneDeterministicAcrossConcurrency: the lane engine inherits
// the estimators' central reproducibility contract — byte-identical
// summaries at every concurrency — because chunk boundaries stay
// group-aligned and group draws depend only on (seed, group).
func TestLaneDeterministicAcrossConcurrency(t *testing.T) {
	in, o := chainsFixture()
	want, wantInc, eng := EstimateParallelInfo(in, o, 1500, 100000, 9, 1)
	if eng.Engine != EngineLane {
		t.Fatalf("engine %+v", eng)
	}
	for _, conc := range []int{4, runtime.GOMAXPROCS(0), 0} {
		got, gotInc, _ := EstimateParallelInfo(in, o, 1500, 100000, 9, conc)
		if got != want || gotInc != wantInc {
			t.Errorf("concurrency %d: %+v/%d differs from sequential %+v/%d",
				conc, got, gotInc, want, wantInc)
		}
	}
}

// TestLaneGroupAllocationFree proves a lane group walk allocates
// nothing once the worker exists (prefix-resident groups), and that
// the worker's win-mask buffer holds one group at a time: after one
// pass over many groups, a second pass over them allocates nothing.
func TestLaneGroupAllocationFree(t *testing.T) {
	in, o := chainsFixture()
	c := Prepare(in, o).compiled
	if c == nil {
		t.Fatal("compile failed")
	}
	w := newLaneOblivRunner(c, 7)
	w.runGroup(0, LaneWidth, 100000)
	if w.tailR != nil {
		t.Fatal("fixture unexpectedly hit the tail; enlarge the prefix")
	}
	allocs := testing.AllocsPerRun(50, func() {
		w.runGroup(1, LaneWidth, 100000)
	})
	if allocs != 0 {
		t.Errorf("oblivious lane group: %v allocs/run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1, func() {
		for g := int64(0); g < 256; g++ {
			w.runGroup(g, LaneWidth, 100000)
		}
	})
	if allocs != 0 {
		t.Errorf("256 oblivious lane groups: %v allocs on the second pass, want 0", allocs)
	}
}

// TestLaneWinSegments pins the per-group win-mask segments: after every
// group, each job's segment ends at the lanes that completed it, also
// for a job whose walk was skipped after an earlier group walked it.
// Job 0 of a chain completes within the prefix in about half of the
// one-lane groups, so jobs 1 and 2 alternate between walked and
// skipped.
func TestLaneWinSegments(t *testing.T) {
	in := model.New(3, 1)
	in.P[0] = []float64{0.15, 0.5, 0.5}
	in.Prec.MustEdge(0, 1)
	in.Prec.MustEdge(1, 2)
	var steps []sched.Assignment
	for j := 0; j < 3; j++ {
		a := sched.Assignment{j}
		for k := 0; k < 4; k++ {
			steps = append(steps, a)
		}
	}
	c := Prepare(in, sched.NewOblivious(1, steps, nil)).compiled
	w := newLaneOblivRunner(c, 3)
	var walked, skipped bool
	for g := int64(0); g < 64; g++ {
		cnt := LaneWidth
		if g%2 == 1 {
			cnt = 1
		}
		w.runGroup(g, cnt, len(steps))
		if cnt == 1 {
			if w.done[0] != 0 {
				walked = true
			} else {
				skipped = true
			}
		}
		for j := 0; j < in.N; j++ {
			if got := w.winsBefore(j, int32(len(steps))); got != w.done[j] {
				t.Fatalf("group %d job %d: segment ends at %#x, want done mask %#x", g, j, got, w.done[j])
			}
		}
	}
	if !walked || !skipped {
		t.Fatalf("fixture did not alternate: walked %v skipped %v", walked, skipped)
	}
}

// TestLaneEstimateAllocation pins the lane walk's per-call scratch to
// what the walk visits: a prepared independent 64x16 engine, estimated
// at 2048 repetitions on 2 workers, allocates per call less than an
// eighth of the engine's own size. A per-occurrence scratch word would
// cost each worker about 0.4x SizeBytes.
func TestLaneEstimateAllocation(t *testing.T) {
	in := workload.Independent(workload.Config{Jobs: 64, Machines: 16, Seed: 3})
	_, res, err := solve.Auto(in, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	p := Prepare(in, res.Policy)
	const reps, calls = 2048, 8
	if _, _, eng := p.EstimateParallelInfo(reps, 1<<20, 1, 2); eng.Engine != EngineLane {
		t.Fatalf("engine %+v, want %s", eng, EngineLane)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		p.EstimateParallelInfo(reps, 1<<20, int64(i), 2)
	}
	runtime.ReadMemStats(&after)
	perCall := int64(after.TotalAlloc-before.TotalAlloc) / calls
	t.Logf("lane estimate: %d B per call, engine %d B", perCall, p.SizeBytes())
	if perCall*8 >= p.SizeBytes() {
		t.Errorf("lane estimate allocates %d B per call, want < SizeBytes/8 = %d B", perCall, p.SizeBytes()/8)
	}
}
