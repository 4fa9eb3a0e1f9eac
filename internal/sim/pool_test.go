package sim

import (
	"fmt"
	"math"
	"runtime"
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

// poisonedLaneWorker is a pooled lane worker whose buffers hold
// garbage: events at step -1 with full masks, event bounds and heap
// cursors of -1, full done masks.
func poisonedLaneWorker(n int) *laneOblivRunner {
	r := &laneOblivRunner{
		done:    make([]uint64, n),
		events:  make([]laneEvent, 0, 4*n),
		evLo:    make([]int32, n),
		evHi:    make([]int32, n),
		cursors: make([]laneCursor, n),
	}
	fill(r.done, ^uint64(0))
	fill(r.events, laneEvent{step: -1, done: ^uint64(0)})
	fill(r.evLo, -1)
	fill(r.evHi, -1)
	fill(r.cursors, laneCursor{step: -1, at: -1, lo: -1})
	return r
}

// emptyPools drops everything the engine pools hold: the pool keeps
// what survives one collection as a victim and drops it at the next.
// The next call then allocates fresh lane workers and a fresh window.
func emptyPools() {
	runtime.GC()
	runtime.GC()
}

// oneShotForms are the one-shot estimators, each rendered as a string
// that changes if any bit of its result does.
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
}

func bitsOf(xs ...float64) []uint64 {
	out := make([]uint64, len(xs))
	for i, x := range xs {
		out[i] = math.Float64bits(x)
	}
	return out
}

// poisonPools empties the engine pools and puts back two lane workers
// sized for n jobs and a makespan window, every buffer holding garbage
// (NaN, -1, full masks). taken reports whether a call has since taken
// any of them: a lane worker's seed and the window's first makespan
// are written by every walk that runs on them.
func poisonPools(n int) (taken func() bool) {
	emptyPools()
	workers := []*laneOblivRunner{poisonedLaneWorker(n), poisonedLaneWorker(n)}
	for _, r := range workers {
		lanePool.Put(r)
	}
	win := make([]float64, windowChunks*estimateChunk)
	fill(win, math.NaN())
	windowPool.Put(&win)
	return func() bool {
		return !math.IsNaN(win[0]) || workers[0].seed != 0 || workers[1].seed != 0
	}
}

// TestPooledLaneBuffersMatchFresh pins the pooled buffers' contract: a
// one-shot estimate whose lane workers and makespan window come from
// their pools, sized for a larger instance and filled with garbage,
// returns the bits of an estimate on empty pools. Every form must take
// a poisoned buffer at least once.
func TestPooledLaneBuffersMatchFresh(t *testing.T) {
	large := workload.Independent(workload.Config{Jobs: 64, Machines: 16, Seed: 3})

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
			// A pool may hand out something else (the race detector
			// drops a share of what is put back); try again then.
			for try := 0; try < 10 && !used; try++ {
				taken := poisonPools(large.N)
				got := form.run(tg.in, tg.o)
				if used = taken(); used && got != want {
					t.Errorf("%s, %s: poisoned pooled buffers gave\n%s\nempty pools gave\n%s", tg.name, form.name, got, want)
				}
			}
			if !used {
				t.Errorf("%s, %s: no call took a poisoned pooled buffer", tg.name, form.name)
			}
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
// after a burst of one-shot estimates on other instances, which fill
// the lane-worker and window pools its own calls draw from: its
// results and its SizeBytes do not move.
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
