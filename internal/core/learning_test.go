package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/sim"
)

func TestLearningPolicyCompletes(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	in := randomInstance(6, 3, rng)
	lp := NewLearningPolicy(in, 0.5)
	res := sim.Run(in, lp, 1_000_000, rand.New(rand.NewSource(1)))
	if !res.Completed {
		t.Fatal("learning policy did not complete")
	}
}

func TestLearningPolicySingleMachineEstimateConverges(t *testing.T) {
	// One machine, one hard job with p = 0.2: posterior mean must
	// approach 0.2 as attempts accumulate across repeated episodes.
	in := model.New(1, 1)
	in.P[0][0] = 0.2
	lp := NewLearningPolicy(in, 0)
	rng := rand.New(rand.NewSource(5))
	for episode := 0; episode < 400; episode++ {
		sim.Run(in, lp, 100000, rng)
	}
	est := lp.Estimate(0, 0)
	if math.Abs(est-0.2) > 0.05 {
		t.Errorf("estimate %v, want ≈0.2 (attempts %v)", est, lp.Attempts(0, 0))
	}
}

func TestLearningPolicyPrefersBetterMachinePair(t *testing.T) {
	// Two jobs, two machines with strongly asymmetric skills. After
	// enough episodes, the learner's estimates should rank each
	// machine's own specialty above the other job.
	in := model.New(2, 2)
	in.P[0][0], in.P[0][1] = 0.9, 0.05
	in.P[1][0], in.P[1][1] = 0.05, 0.9
	lp := NewLearningPolicy(in, 1.0)
	rng := rand.New(rand.NewSource(7))
	for episode := 0; episode < 300; episode++ {
		sim.Run(in, lp, 100000, rng)
	}
	if lp.Estimate(0, 0) <= lp.Estimate(0, 1) {
		t.Errorf("machine 0: est(job0)=%v <= est(job1)=%v", lp.Estimate(0, 0), lp.Estimate(0, 1))
	}
	if lp.Estimate(1, 1) <= lp.Estimate(1, 0) {
		t.Errorf("machine 1: est(job1)=%v <= est(job0)=%v", lp.Estimate(1, 1), lp.Estimate(1, 0))
	}
}

func TestLearningPolicyApproachesAdaptive(t *testing.T) {
	// With many episodes of training, the learner's per-episode
	// makespan should approach the clairvoyant adaptive policy's.
	rng := rand.New(rand.NewSource(11))
	in := randomInstance(4, 2, rng)
	lp := NewLearningPolicy(in, 0.5)
	trainRng := rand.New(rand.NewSource(13))
	for episode := 0; episode < 500; episode++ {
		sim.Run(in, lp, 100000, trainRng)
	}
	// Evaluate: average episode length of the trained learner vs the
	// adaptive policy with true probabilities.
	evalRng := rand.New(rand.NewSource(17))
	var learnSum, adaptSum float64
	const evals = 400
	for k := 0; k < evals; k++ {
		learnSum += float64(sim.Run(in, lp, 100000, evalRng).Makespan)
		adaptSum += float64(sim.Run(in, &AdaptivePolicy{In: in}, 100000, evalRng).Makespan)
	}
	learned, adaptive := learnSum/evals, adaptSum/evals
	if learned > 1.6*adaptive+1 {
		t.Errorf("trained learner %v much worse than clairvoyant adaptive %v", learned, adaptive)
	}
}

func TestLearningPolicyFailureUpdatesExact(t *testing.T) {
	// Machines assigned to a job that does NOT complete must all get a
	// β increment (exact failure update).
	in := model.New(1, 2)
	in.P[0][0], in.P[1][0] = 0.01, 0.01
	lp := NewLearningPolicy(in, 1) // optimism forces assignment
	st := &sched.State{Unfinished: []bool{true}, Eligible: []bool{true}}
	a := lp.Assign(st)
	assigned := 0
	for _, j := range a {
		if j == 0 {
			assigned++
		}
	}
	if assigned == 0 {
		t.Fatal("learner assigned nothing")
	}
	before0, before1 := lp.Attempts(0, 0), lp.Attempts(1, 0)
	lp.Observe(a, []bool{false}) // job did not complete → exact failure fold-in
	gained := (lp.Attempts(0, 0) - before0) + (lp.Attempts(1, 0) - before1)
	if int(gained+0.5) != assigned {
		t.Errorf("attempts gained %v, want %d", gained, assigned)
	}
	if lp.Estimate(0, 0) > 0.5 && lp.Estimate(1, 0) > 0.5 {
		t.Error("failure did not lower any posterior mean")
	}
	// Success with a single machine must be the exact Beta update.
	lp2 := NewLearningPolicy(in, 0)
	lp2.Observe(sched.Assignment{0, sched.Idle}, []bool{true})
	if math.Abs(lp2.Estimate(0, 0)-2.0/3) > 1e-12 {
		t.Errorf("single-machine success: estimate %v, want 2/3", lp2.Estimate(0, 0))
	}
}

// TestLearningPolicyAllocationFree pins the learner's step cost: once
// a first run has warmed the runner, a run of the generic step engine
// allocates nothing, the learner's Assign and Observe included.
func TestLearningPolicyAllocationFree(t *testing.T) {
	in := randomInstance(12, 4, rand.New(rand.NewSource(31)))
	lp := NewLearningPolicy(in, 0.5)
	r := sim.NewRunner(in, lp)
	var rng sim.Stream
	rep := int64(0)
	run := func() {
		rng.Reseed(7, rep)
		rep++
		if _, done := r.Run(100_000, &rng); !done {
			t.Fatal("learner did not complete")
		}
	}
	run()
	if allocs := testing.AllocsPerRun(50, run); allocs != 0 {
		t.Errorf("%v allocations per run, want 0", allocs)
	}
}

// checkedLearner plays a learner and checks every assignment against
// MSM-ALG over a fresh matrix of the learner's (optimistic) estimates,
// which is what the learner ranks in place.
type checkedLearner struct {
	t  *testing.T
	lp *LearningPolicy
}

func (c checkedLearner) Assign(st *sched.State) sched.Assignment {
	lp := c.lp
	est := model.New(lp.In.N, lp.In.M)
	for i := 0; i < lp.In.M; i++ {
		for j := 0; j < lp.In.N; j++ {
			v := lp.Estimate(i, j)
			if lp.Optimism > 0 {
				v += lp.Optimism * math.Sqrt(math.Log(float64(lp.step+1)+1)/(lp.Attempts(i, j)+1))
			}
			est.P[i][j] = math.Min(v, 1)
		}
	}
	want := MSMAlg(est, st.Eligible)
	got := lp.Assign(st)
	if !slices.Equal(got, want) {
		c.t.Fatalf("step %d: learner assigned %v, MSM-ALG over its estimates %v", lp.step, got, want)
	}
	return got
}

func (c checkedLearner) Observe(played sched.Assignment, completed []bool) {
	c.lp.Observe(played, completed)
}

// TestLearningPolicyMatchesMSMAlg: the in-place ranking assigns what
// MSM-ALG assigns over the same estimates, step after step of
// training, with and without the optimism bonus.
func TestLearningPolicyMatchesMSMAlg(t *testing.T) {
	for _, optimism := range []float64{0, 0.5} {
		in := randomInstance(8, 3, rand.New(rand.NewSource(41)))
		in.Prec.MustEdge(0, 3)
		in.Prec.MustEdge(1, 3)
		pol := checkedLearner{t: t, lp: NewLearningPolicy(in, optimism)}
		rng := rand.New(rand.NewSource(43))
		for episode := 0; episode < 40; episode++ {
			if !sim.Run(in, pol, 100_000, rng).Completed {
				t.Fatal("learner did not complete")
			}
		}
	}
}
