package sim

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"suu/internal/core"
	"suu/internal/model"
	"suu/internal/opt"
	"suu/internal/sched"
	"suu/internal/workload"
)

// adaptiveParityCases builds one (instance, policy) pair per
// stationary-policy family the compiled adaptive engine must cover:
// the MSM greedy (SUU-I-ALG), a greedy regimen frozen through the opt
// state walk, and a trained-then-frozen learning policy. The MSM
// greedy also runs on a 64-job out-tree, whose precedence reaches bit
// 63 and whose full set is the all-ones mask.
func adaptiveParityCases(t *testing.T) map[string]struct {
	in  *model.Instance
	pol sched.Memoizable
} {
	t.Helper()
	cases := map[string]struct {
		in  *model.Instance
		pol sched.Memoizable
	}{}

	msmIn := workload.Independent(workload.Config{Jobs: 10, Machines: 3, Seed: 42})
	cases["msm-adaptive"] = struct {
		in  *model.Instance
		pol sched.Memoizable
	}{msmIn, &core.AdaptivePolicy{In: msmIn}}

	treeIn := workload.OutTree(workload.Config{Jobs: 64, Machines: 8, Seed: 5})
	cases["msm-adaptive-outtree-64"] = struct {
		in  *model.Instance
		pol sched.Memoizable
	}{treeIn, &core.AdaptivePolicy{In: treeIn}}

	regIn := workload.Chains(workload.Config{Jobs: 9, Machines: 3, Seed: 7}, 3)
	reg, err := opt.GreedyRegimen(regIn, func(unf, elig []bool) sched.Assignment {
		return core.MSMAlg(regIn, elig)
	})
	if err != nil {
		t.Fatal(err)
	}
	cases["greedy-regimen"] = struct {
		in  *model.Instance
		pol sched.Memoizable
	}{regIn, reg}

	learnIn := workload.Independent(workload.Config{Jobs: 8, Machines: 3, Seed: 13})
	lp := core.NewLearningPolicy(learnIn, 0.5)
	r := NewRunner(learnIn, lp)
	var rng Stream
	for rep := 0; rep < 25; rep++ {
		rng.Reseed(99, int64(rep))
		r.Run(100000, &rng)
	}
	cases["frozen-learning"] = struct {
		in  *model.Instance
		pol sched.Memoizable
	}{learnIn, lp.Frozen()}

	return cases
}

// TestCompiledAdaptiveBitIdenticalToGeneric is the tentpole's parity
// bar: for every stationary-policy family, the compiled transition
// table must reproduce the generic step engine's summary and
// incomplete count EXACTLY (same draws, same order, same floats), and
// must stay bit-identical across worker counts 1/4/GOMAXPROCS.
func TestCompiledAdaptiveBitIdenticalToGeneric(t *testing.T) {
	const reps, cap, seed = 1500, 100000, 17
	for name, tc := range adaptiveParityCases(t) {
		t.Run(name, func(t *testing.T) {
			sumC, incC, eng := EstimateParallelInfo(tc.in, tc.pol, reps, cap, seed, 1)
			if eng.Engine != EngineCompiledAdaptive {
				t.Fatalf("engine = %q (states %d), want %q", eng.Engine, eng.States, EngineCompiledAdaptive)
			}
			if eng.States < 2 {
				t.Fatalf("suspiciously small table: %d states", eng.States)
			}
			generic := sched.PolicyFunc(tc.pol.Assign)
			sumG, incG, engG := EstimateParallelInfo(tc.in, generic, reps, cap, seed, 1)
			if engG.Engine != EngineGeneric {
				t.Fatalf("PolicyFunc wrapper ran on %q, want generic", engG.Engine)
			}
			if sumC != sumG || incC != incG {
				t.Errorf("engines disagree: compiled %+v/%d vs generic %+v/%d", sumC, incC, sumG, incG)
			}
			for _, conc := range []int{1, 4, runtime.GOMAXPROCS(0), 0} {
				got, gotInc, engP := EstimateParallelInfo(tc.in, tc.pol, reps, cap, seed, conc)
				if engP.Engine != EngineCompiledAdaptive {
					t.Errorf("concurrency %d: engine %q", conc, engP.Engine)
				}
				if got != sumC || gotInc != incC {
					t.Errorf("concurrency %d: %+v/%d differs from sequential %+v/%d", conc, got, gotInc, sumC, incC)
				}
			}
		})
	}
}

// TestCompiledAdaptiveMemoCapParity pins the bounded memo: whatever
// the per-worker state cap — so whichever states are kept and which
// are digested into the scratch state on every visit — the summary
// and incomplete count equal the generic step engine's at 1 and 3
// workers, and the memoized-state count is the same at 1, 2 and 4
// workers and never above the cap.
func TestCompiledAdaptiveMemoCapParity(t *testing.T) {
	in := workload.Independent(workload.Config{Jobs: 12, Machines: 4, Seed: 3})
	pol := &core.AdaptivePolicy{In: in}
	const reps, cap, seed = 700, 100000, 5
	sumG, incG, _ := EstimateParallelInfo(in, sched.PolicyFunc(pol.Assign), reps, cap, seed, 1)
	_, _, full := EstimateParallelInfo(in, pol, reps, cap, seed, 1)
	if full.Engine != EngineCompiledAdaptive || full.States < 60 {
		t.Fatalf("default memo: %+v, want compiled-adaptive with the fixture's states", full)
	}
	for _, budget := range []int{1, 2, 3, 10, 50, callBudget(reps)} {
		memo := &estimator{in: in, pol: pol, memo: pol, budget: budget,
			engine: EngineUsed{Engine: EngineCompiledAdaptive}}
		for _, workers := range []int{1, 3} {
			sum, inc, _ := memo.run(reps, cap, seed, workers)
			if sum != sumG || inc != incG {
				t.Errorf("cap %d, %d workers: memo %+v/%d vs generic %+v/%d", budget, workers, sum, inc, sumG, incG)
			}
		}
		var states []int
		for _, workers := range []int{1, 2, 4} {
			_, _, eng := memo.run(reps, cap, seed, workers)
			states = append(states, eng.States)
		}
		if want := min(full.States, budget); states[0] != want || states[1] != want || states[2] != want {
			t.Errorf("cap %d: states at 1/2/4 workers = %v, want %d each", budget, states, want)
		}
		// Whichever worker ran which repetitions, the union is the
		// one-worker count: split the repetitions by hand.
		var rng Stream
		walk := func(r *adaptRunner, lo, hi int) *adaptRunner {
			for rep := lo; rep < hi; rep++ {
				rng.Reseed(seed, int64(rep))
				r.run(cap, &rng)
			}
			return r
		}
		one := walk(newAdaptRunner(in, pol, budget), 0, reps)
		a, b := walk(newAdaptRunner(in, pol, budget), 0, 40), walk(newAdaptRunner(in, pol, budget), 40, reps)
		if budget > full.States && len(a.keys) == len(one.keys) {
			t.Fatalf("cap %d: the first 40 repetitions already visit all %d states; the split tests no union", budget, len(one.keys))
		}
		if got, want := memoizedStates([]*adaptRunner{a, b}, budget), memoizedStates([]*adaptRunner{one}, budget); got != want {
			t.Errorf("cap %d: split workers memoized %d states, one worker %d", budget, got, want)
		}
	}
}

// TestCompiledAdaptiveStuckState: a regimen with missing states idles
// there forever; the compiled walk must report the same capped,
// incomplete runs as the step engine.
func TestCompiledAdaptiveStuckState(t *testing.T) {
	in := model.New(2, 1)
	in.SetAt(0, 0, 0.5)
	in.SetAt(0, 1, 0.5)
	reg := sched.NewRegimen(2, 1)
	reg.F[sched.Key([]bool{true, true})] = sched.Assignment{0} // {1} and {0,1}\{0} states missing
	const reps, cap, seed = 400, 50, 9
	sumC, incC, eng := EstimateParallelInfo(in, reg, reps, cap, seed, 1)
	if eng.Engine != EngineCompiledAdaptive {
		t.Fatalf("engine %q, want compiled-adaptive", eng.Engine)
	}
	sumG, incG, _ := EstimateParallelInfo(in, sched.PolicyFunc(reg.Assign), reps, cap, seed, 1)
	if sumC != sumG || incC != incG {
		t.Errorf("stuck-state parity: compiled %+v/%d vs generic %+v/%d", sumC, incC, sumG, incG)
	}
	if incC == 0 {
		t.Error("fixture did not get stuck; missing-state fallback untested")
	}
}

// TestCompiledAdaptiveObserverNeverCompiles: a policy that both claims
// stationarity and observes outcomes is a contract violation; the
// engine refuses to compile it rather than drop its observations.
func TestCompiledAdaptiveObserverNeverCompiles(t *testing.T) {
	in := workload.Independent(workload.Config{Jobs: 6, Machines: 2, Seed: 21})
	lp := core.NewLearningPolicy(in, 0)
	_, _, eng := EstimateParallelInfo(in, observingMemoizable{lp}, 50, 10000, 3, 1)
	if eng.Engine != EngineGeneric {
		t.Errorf("observer policy compiled to %q", eng.Engine)
	}
	// And the live (non-memoizable) learner loses its requested fan-out
	// explicitly: EngineUsed.Workers records the sequential decision.
	_, _, engPar := EstimateParallelInfo(in, lp, 50, 10000, 3, 4)
	if engPar.Engine != EngineGeneric || engPar.Workers != 1 {
		t.Errorf("observer fan-out not degraded to sequential: %+v", engPar)
	}
}

// observingMemoizable wraps the learner with a bogus Memoizable claim.
type observingMemoizable struct{ *core.LearningPolicy }

func (observingMemoizable) Memoizable() {}

// TestCompiledAdaptiveCertainJobParity: p_ij = 1 drives the step
// engine's fail product to zero mid-step; a first-touch sentinel based
// on fail[j]==0 would re-enroll the job, double-count its mass, and
// desync the draw stream. Both engines use an explicit seen marker, so
// a certain job drawn by several machines stays one trial — and the
// engines stay bit-identical.
func TestCompiledAdaptiveCertainJobParity(t *testing.T) {
	in := model.New(2, 2)
	in.SetAt(0, 0, 1)
	in.SetAt(1, 0, 1)
	in.SetAt(0, 1, 0.5)
	in.SetAt(1, 1, 0.5)
	pol := &core.AllOnOnePolicy{In: in} // gangs both machines onto job 0, then job 1
	const reps, cap, seed = 600, 10000, 13
	sumC, incC, eng := EstimateParallelInfo(in, pol, reps, cap, seed, 1)
	if eng.Engine != EngineCompiledAdaptive {
		t.Fatalf("engine %q, want compiled-adaptive", eng.Engine)
	}
	sumG, incG, _ := EstimateParallelInfo(in, sched.PolicyFunc(pol.Assign), reps, cap, seed, 1)
	if sumC != sumG || incC != incG {
		t.Errorf("p=1 parity: compiled %+v/%d vs generic %+v/%d", sumC, incC, sumG, incG)
	}
	// Mass of the certain job is exactly 2 (both machines' p summed
	// once), not 4 — the duplicate-enrollment symptom.
	if got := Run(in, pol, cap, rand.New(rand.NewSource(seed))).Mass[0]; math.Abs(got-2) > 1e-12 {
		t.Errorf("certain job accumulated mass %v, want exactly 2", got)
	}
}

// TestCompiledAdaptiveWideAssignmentRunsFromScratch: a state that
// trials more than maxMemoFanout jobs would need a >2^20-slot
// successor array; the memo must not keep it (nor allocate the array)
// and instead digest it into the scratch state on every visit, with
// draws still identical to the generic engine's.
func TestCompiledAdaptiveWideAssignmentRunsFromScratch(t *testing.T) {
	const n = 24
	in := model.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			p := 0.1
			if i == j {
				p = 0.9 // each machine's argmax is its own job
			}
			in.SetAt(i, j, p)
		}
	}
	pol := &core.GreedyMaxPPolicy{In: in}
	sum, inc, eng := EstimateParallelInfo(in, pol, 200, 10000, 7, 1)
	if eng.Engine != EngineCompiledAdaptive {
		t.Fatalf("wide assignment ran %q, want compiled-adaptive", eng.Engine)
	}
	sumG, incG, _ := EstimateParallelInfo(in, sched.PolicyFunc(pol.Assign), 200, 10000, 7, 1)
	if sum != sumG || inc != incG {
		t.Errorf("scratch digests changed values: %+v/%d vs %+v/%d", sum, inc, sumG, incG)
	}
	r := newAdaptRunner(in, pol, DefaultAdaptiveCompileBudget)
	var rng Stream
	rng.Reseed(7, 0)
	r.run(10000, &rng)
	if idx, ok := r.keys[1<<n-1]; !ok || idx != scratchState || r.slots > maxAdaptiveTableEntries {
		t.Errorf("full set: recorded %v, kept at %d (want scratch); %d successor slots", ok, idx, r.slots)
	}
}

// TestCompiledAdaptiveRepAllocationFree proves the memo walk
// allocates nothing per repetition once the memo holds the states the
// repetition visits (AllocsPerRun's warm-up run memoizes them).
func TestCompiledAdaptiveRepAllocationFree(t *testing.T) {
	in := workload.Independent(workload.Config{Jobs: 10, Machines: 3, Seed: 42})
	pol := &core.AdaptivePolicy{In: in}
	w := newAdaptRunner(in, pol, DefaultAdaptiveCompileBudget)
	var rng Stream
	rng.Reseed(1, 0)
	w.run(100000, &rng)
	allocs := testing.AllocsPerRun(50, func() {
		rng.Reseed(1, 1)
		if makespan, done := w.run(100000, &rng); !done || makespan <= 0 {
			t.Fatal("run failed")
		}
	})
	if allocs != 0 {
		t.Errorf("compiled adaptive repetition: %v allocs/run, want 0", allocs)
	}
}
