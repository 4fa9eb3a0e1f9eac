package sim

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"suu/internal/core"
	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/solve"
	"suu/internal/workload"
)

// autoOblivious is solve.Auto's oblivious schedule for in.
func autoOblivious(t *testing.T, in *model.Instance) *sched.Oblivious {
	t.Helper()
	_, res, err := solve.Auto(in, core.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	o, ok := res.Policy.(*sched.Oblivious)
	if !ok {
		t.Fatalf("solve.Auto built %T, want an oblivious schedule", res.Policy)
	}
	return o
}

// prefixOf keeps the first steps of o's prefix and its tail, so most
// repetitions outlive the prefix and continue on the step engine.
func prefixOf(o *sched.Oblivious, steps int) *sched.Oblivious {
	var kept []sched.Assignment
	for t, a := range o.Steps() {
		if t == steps {
			break
		}
		kept = append(kept, a)
	}
	return sched.NewOblivious(o.M, kept, o.Tail)
}

// fill sets every element of s up to its capacity to v.
func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// poisonWorkspace fills every array ws owns, up to capacity, with
// values no compile writes (NaN, -1), and marks the workspace unused.
func poisonWorkspace(ws *workspace) {
	for _, s := range [][]int32{ws.c.topo, ws.c.offs, ws.counts, ws.last, ws.next} {
		fill(s, -1)
	}
	fill(ws.c.runs, jobRun{start: -1, end: -1, base: -1, succ: math.NaN(), mass: math.NaN()})
	for _, s := range [][]float64{ws.fail, ws.mass} {
		fill(s, math.NaN())
	}
	fill(ws.jobs, -1)
	ws.c.prefixLen, ws.c.occurrences = -1, -1
}

// runsEqual compares run tables entry for entry, floats bit for bit.
func runsEqual(a, b []jobRun) bool {
	return slices.EqualFunc(a, b, func(x, y jobRun) bool {
		return x.start == y.start && x.end == y.end && x.base == y.base &&
			math.Float64bits(x.succ) == math.Float64bits(y.succ) && math.Float64bits(x.mass) == math.Float64bits(y.mass)
	})
}

// poisonedLaneWorker is a pooled lane worker whose buffers hold
// garbage: completion steps and window bounds of -1, full masks.
func poisonedLaneWorker(n int) *laneOblivRunner {
	r := &laneOblivRunner{
		comp: make([]int32, n*LaneWidth),
		done: make([]uint64, n),
		wins: make([]uint64, 0, 4*n),
		wlo:  make([]int32, n),
		whi:  make([]int32, n),
	}
	fill(r.comp, -1)
	fill(r.done, ^uint64(0))
	fill(r.wins, ^uint64(0))
	fill(r.wlo, -1)
	fill(r.whi, -1)
	return r
}

// emptyPools drops everything the engine pools hold: the pool keeps
// what survives one collection as a victim and drops it at the next.
// The next one-shot call then compiles into a fresh workspace.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// oneShotForms are the one-shot estimators a workspace serves, each
// rendered as a string that changes if any bit of its result does.
var oneShotForms = []struct {
	name string
	run  func(in *model.Instance, pol sched.Policy) string
}{
	{"scalar compiled walk", func(in *model.Instance, pol sched.Policy) string {
		sum, inc, eng := EstimateParallelInfo(in, pol, 200, 1<<20, 3, 2)
		return fmt.Sprintf("%v %d %+v", bitsOf(sum.Mean, sum.StdDev, sum.Min, sum.Max), inc, eng)
	}},
	{"lane walk", func(in *model.Instance, pol sched.Policy) string {
		sum, inc, eng := EstimateParallelInfo(in, pol, 1000, 1<<20, 4, 2)
		return fmt.Sprintf("%v %d %+v", bitsOf(sum.Mean, sum.StdDev, sum.Min, sum.Max), inc, eng)
	}},
	{"capped lane walk", func(in *model.Instance, pol sched.Policy) string {
		sum, inc, eng := EstimateParallelInfo(in, pol, 300, 25, 5, 1)
		return fmt.Sprintf("%v %d %+v", bitsOf(sum.Mean, sum.StdDev, sum.Min, sum.Max), inc, eng)
	}},
	{"EstimateInfoLanes(false)", func(in *model.Instance, pol sched.Policy) string {
		sum, inc, eng := EstimateInfoLanes(in, pol, 700, 1<<20, 6, false)
		return fmt.Sprintf("%v %d %+v", bitsOf(sum.Mean, sum.StdDev, sum.Min, sum.Max), inc, eng)
	}},
	{"MakespanQuantilesParallel", func(in *model.Instance, pol sched.Policy) string {
		qs, xs := MakespanQuantilesParallel(in, pol, 777, 1<<20, 7, []float64{0.1, 0.5, 0.99}, 2)
		return fmt.Sprintf("%v %v", bitsOf(qs...), bitsOf(xs...))
	}},
	{"MassWithinHorizon scalar", func(in *model.Instance, pol sched.Policy) string {
		return fmt.Sprint(bitsOf(MassWithinHorizon(in, pol, 30, 100, 0.25, 9)...))
	}},
	{"MassWithinHorizon lanes", func(in *model.Instance, pol sched.Policy) string {
		return fmt.Sprint(bitsOf(MassWithinHorizon(in, pol, 1<<20, 400, 1.0, 10)...))
	}},
}

func bitsOf(xs ...float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// TestReusedWorkspaceMatchesFresh pins the workspace contract: a
// one-shot estimate that compiles into a pooled workspace, one that
// last held a larger and then a smaller schedule and whose arrays were
// then filled with NaN and -1, returns the bits of an estimate on a
// fresh compile. The lane workers and the makespan window it finds in
// their pools are poisoned too.
func TestReusedWorkspaceMatchesFresh(t *testing.T) {
	large := workload.Independent(workload.Config{Jobs: 64, Machines: 16, Seed: 3})
	largeO := autoOblivious(t, large)
	small := workload.Chains(workload.Config{Jobs: 6, Machines: 3, Seed: 4}, 2)
	smallO := autoOblivious(t, small)

	type target struct {
		name string
		in   *model.Instance
		o    *sched.Oblivious
	}
	var targets []target
	for _, s := range []struct {
		name string
		in   *model.Instance
	}{
		{"independent", workload.Independent(workload.Config{Jobs: 24, Machines: 6, Seed: 21})},
		{"chains", workload.Chains(workload.Config{Jobs: 18, Machines: 4, Seed: 22}, 3)},
		{"in-forest", workload.InTree(workload.Config{Jobs: 16, Machines: 4, Seed: 23})},
		{"layered", workload.LayeredWidth(workload.Config{Jobs: 16, Machines: 4, Seed: 24}, 4, 0.3)},
	} {
		o := autoOblivious(t, s.in)
		targets = append(targets, target{s.name, s.in, o}, target{s.name + " short prefix", s.in, prefixOf(o, 10)})
	}

	for _, tg := range targets {
		for _, form := range oneShotForms {
			emptyPools()
			want := form.run(tg.in, tg.o)
			used := false
			for try := 0; try < 50 && !used; try++ {
				ws := new(workspace)
				for _, c := range []struct {
					in *model.Instance
					o  *sched.Oblivious
				}{{large, largeO}, {small, smallO}} {
					o, order := compilable(c.in, c.o)
					compileOblivious(ws, c.in, o, order)
				}
				poisonWorkspace(ws)
				emptyPools()
				for range 2 {
					lanePool.Put(poisonedLaneWorker(large.N))
				}
				win := make([]float64, windowChunks*estimateChunk)
				fill(win, math.NaN())
				windowPool.Put(&win)
				workspacePool.Put(ws)
				got := form.run(tg.in, tg.o)
				// A pool may hand out something else (the race detector
				// drops a share of what is put back); try again then.
				if used = ws.c.prefixLen == tg.o.Len(); used && got != want {
					t.Errorf("%s, %s: reused workspace gave\n%s\nfresh compile gave\n%s", tg.name, form.name, got, want)
				}
			}
			if !used {
				t.Errorf("%s, %s: no call compiled into the pooled workspace", tg.name, form.name)
			}
		}
	}
}

// TestReusedWorkspaceCompileMatchesPrepare pins the tables themselves:
// compiling into a poisoned workspace that held a larger schedule
// gives Prepare's exact-size tables, entry for entry.
func TestReusedWorkspaceCompileMatchesPrepare(t *testing.T) {
	large := workload.Independent(workload.Config{Jobs: 64, Machines: 16, Seed: 3})
	ws := new(workspace)
	o, order := compilable(large, autoOblivious(t, large))
	compileOblivious(ws, large, o, order)
	for _, in := range []*model.Instance{
		workload.Chains(workload.Config{Jobs: 18, Machines: 4, Seed: 12}, 3),
		workload.OutTree(workload.Config{Jobs: 16, Machines: 4, Seed: 13}),
		workload.MixedForest(workload.Config{Jobs: 18, Machines: 4, Seed: 15}, 3),
	} {
		poisonWorkspace(ws)
		o, order := compilable(in, autoOblivious(t, in))
		got := compileOblivious(ws, in, o, order)
		want := Prepare(in, o).compiled
		if got.prefixLen != want.prefixLen || got.occurrences != want.occurrences ||
			!slices.Equal(got.topo, want.topo) || !slices.Equal(got.offs, want.offs) || !runsEqual(got.runs, want.runs) {
			t.Errorf("%d jobs: tables compiled into a reused workspace differ from Prepare's", in.N)
		}
		if cap(want.runs) != len(want.runs) {
			t.Errorf("%d jobs: Prepare's tables have spare capacity", in.N)
		}
	}
}

// TestConcurrentOneShotMatchesSequential runs one-shot estimates of
// several sizes from four goroutines at once, so the pools hand each
// call memory another call of another size just used, and requires
// the results a sequential run gives.
func TestConcurrentOneShotMatchesSequential(t *testing.T) {
	type call struct {
		name string
		in   *model.Instance
		pol  sched.Policy
	}
	var calls []call
	for _, in := range []*model.Instance{
		workload.Independent(workload.Config{Jobs: 32, Machines: 8, Seed: 31}),
		workload.Chains(workload.Config{Jobs: 12, Machines: 4, Seed: 32}, 3),
		workload.OutTree(workload.Config{Jobs: 20, Machines: 4, Seed: 33}),
	} {
		o := autoOblivious(t, in)
		calls = append(calls, call{fmt.Sprintf("%d jobs", in.N), in, o}, call{fmt.Sprintf("%d jobs short prefix", in.N), in, prefixOf(o, 10)})
	}
	want := make([][]string, len(calls))
	for k, c := range calls {
		for _, form := range oneShotForms {
			want[k] = append(want[k], form.run(c.in, c.pol))
		}
	}
	const goroutines, rounds = 4, 2
	var wg sync.WaitGroup
	errs := make(chan string, goroutines*rounds*len(calls)*len(oneShotForms))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range calls {
					k := (i + g + r) % len(calls)
					for f, form := range oneShotForms {
						if got := form.run(calls[k].in, calls[k].pol); got != want[k][f] {
							errs <- fmt.Sprintf("goroutine %d round %d, %s, %s: got\n%s\nwant\n%s", g, r, calls[k].name, form.name, got, want[k][f])
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestPreparedIsolatedFromOneShotPools estimates a Prepared before and
// after a burst of one-shot estimates on other instances: its results
// and its SizeBytes do not move, since its tables never come from or
// go to a pool.
func TestPreparedIsolatedFromOneShotPools(t *testing.T) {
	in := workload.Chains(workload.Config{Jobs: 18, Machines: 4, Seed: 41}, 3)
	p := Prepare(in, autoOblivious(t, in))
	size := p.SizeBytes()
	estimates := func() string {
		var out string
		for _, reps := range []int{100, 1000} {
			for _, workers := range []int{1, 2} {
				sum, inc, eng := p.EstimateParallelInfo(reps, 1<<20, 5, workers)
				out += fmt.Sprintf("%v %d %+v\n", bitsOf(sum.Mean, sum.StdDev, sum.Min, sum.Max), inc, eng)
			}
		}
		return out
	}
	before := estimates()
	for _, other := range []*model.Instance{
		workload.Independent(workload.Config{Jobs: 64, Machines: 16, Seed: 42}),
		workload.Chains(workload.Config{Jobs: 6, Machines: 3, Seed: 43}, 2),
		workload.OutTree(workload.Config{Jobs: 30, Machines: 6, Seed: 44}),
	} {
		o := autoOblivious(t, other)
		for _, form := range oneShotForms {
			form.run(other, o)
		}
	}
	if after := estimates(); after != before {
		t.Errorf("Prepared estimates moved after one-shot calls:\nbefore\n%s\nafter\n%s", before, after)
	}
	if got := p.SizeBytes(); got != size {
		t.Errorf("SizeBytes %d after one-shot calls, was %d", got, size)
	}
}
