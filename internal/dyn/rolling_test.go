package dyn

import (
	"slices"
	"sync/atomic"
	"testing"

	"suu/internal/core"
	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/solve"
	"suu/internal/workload"
)

// countingSolverID names a registry solver that builds lp-oblivious
// schedules and counts its builds in countedBuilds.
const countingSolverID = "dyn-test-counting"

var countedBuilds atomic.Int64

func init() {
	base, ok := solve.Get("lp-oblivious")
	if !ok {
		panic("dyn test: no lp-oblivious solver")
	}
	counting := base
	counting.ID, counting.Aliases, counting.Rank = countingSolverID, nil, 0
	counting.Build = func(in *model.Instance, par core.Params) (*solve.Result, error) {
		countedBuilds.Add(1)
		return base.Build(in, par)
	}
	solve.Register(counting)
}

// unpackKey inverts packKey for a scenario of n jobs and m machines.
func unpackKey(key string, n, m int) (keep, up []bool, ok bool) {
	if len(key) != (n+m+7)/8 {
		return nil, nil, false
	}
	bits := make([]bool, n+m)
	for i := range bits {
		bits[i] = key[i/8]>>(7-i%8)&1 == 1
	}
	return bits[:n], bits[n:], true
}

// TestRollingPlansBuiltOnce walks one rolling strategy on 5 workers
// through arrivals, an outage and bursts: every plan key must be built
// exactly once across the walkers, every cached plan must be what a
// fresh build of its key gives, and the estimate must match one worker
// walking a strategy of its own.
func TestRollingPlansBuiltOnce(t *testing.T) {
	in := workload.Independent(workload.Config{Jobs: 12, Machines: 4, Seed: 9})
	sc := New(in)
	for j, at := range workload.ArrivalRamp(in.N, 2) {
		if at > 0 {
			sc.ArriveAt(j, at)
		}
	}
	sc.Breakdown(0, 4, 10).Burst(-1, 0.15, 0.9, 0.35)
	par := core.DefaultParams()
	const reps, cap, seed = 64, 100000, 3

	one, err := NewRolling(sc, countingSolverID, par)
	if err != nil {
		t.Fatal(err)
	}
	want, wantInc, _, err := EstimateInfo(sc, one, reps, cap, seed, 1)
	if err != nil {
		t.Fatal(err)
	}

	before := countedBuilds.Load()
	roll, err := NewRolling(sc, countingSolverID, par)
	if err != nil {
		t.Fatal(err)
	}
	got, gotInc, eng, err := EstimateInfo(sc, roll, reps, cap, seed, 5)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Workers != 5 {
		t.Fatalf("%d effective workers, want 5", eng.Workers)
	}
	if got != want || gotInc != wantInc {
		t.Errorf("5 workers sharing a cache: %+v/%d, one worker: %+v/%d", got, gotInc, want, wantInc)
	}
	builds := countedBuilds.Load() - before
	if builds != int64(len(roll.plans)) || len(roll.plans) < 4 {
		t.Errorf("%d plan builds for %d cached keys, want one per key and at least 4 keys", builds, len(roll.plans))
	}

	t.Logf("%d builds, %d keys, mean %v", builds, len(roll.plans), got.Mean)
	for key, e := range roll.plans {
		if e.pl == roll.initial {
			continue
		}
		keep, up, ok := unpackKey(key, in.N, in.M)
		if !ok {
			t.Fatalf("cache key %x does not pack %d jobs and %d machines", key, in.N, in.M)
		}
		fresh, _, err := roll.buildPlan(keep, up, keySeed(par.Seed, keep, up), roll.warm)
		if err != nil {
			fresh = &plan{fallback: true}
		}
		cached := e.pl
		same := fresh.idle == cached.idle && fresh.fallback == cached.fallback &&
			slices.Equal(fresh.mToSub, cached.mToSub) && slices.Equal(fresh.jGlobal, cached.jGlobal)
		if fo, ok := fresh.pol.(*sched.Oblivious); ok {
			co, ok := cached.pol.(*sched.Oblivious)
			same = same && ok && co.M == fo.M && slices.EqualFunc(co.Steps, fo.Steps, slices.Equal[sched.Assignment])
		}
		if !same {
			t.Errorf("cached plan of key %x differs from a fresh build of that key", key)
		}
	}
}
