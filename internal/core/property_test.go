package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/sim"
	"suu/internal/workload"
)

// Property: for ANY random dag (not just the paper's classes),
// SUUForest produces a structurally valid oblivious schedule whose
// core certifies the mass target and whose prefix respects all
// precedence mass windows.
func TestForestPipelinePropertyRandomDags(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	prop := func(seed int64, nRaw, mRaw, density uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + int(nRaw)%8
		m := 1 + int(mRaw)%4
		in := model.New(n, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				in.P[i][j] = 0.05 + 0.9*rng.Float64()
			}
		}
		p := 0.05 + float64(density%60)/100
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					in.Prec.MustEdge(u, v)
				}
			}
		}
		res, err := SUUForest(in, DefaultParams())
		if err != nil {
			return false
		}
		if res.Schedule.Validate(n) != nil {
			return false
		}
		if res.MassAchieved < 0.5-1e-9 {
			return false
		}
		if sched.CheckMassWindows(in, res.Schedule, 0.5) != nil {
			return false
		}
		// The schedule must complete in simulation.
		r := sim.Run(in, res.Schedule, 3_000_000, rand.New(rand.NewSource(seed)))
		return r.Completed
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: with ample capacity, MSM-E-ALG saturates every job. When
// the greedy processes pair (i,j) with remaining capacity, it pushes
// j's mass above 1 − p_ij; hence with t large enough that no machine
// runs out of capacity, the final mass of every job exceeds
// 1 − min_i{p_ij > 0}. (Note: total greedy mass is NOT monotone in t —
// longer horizons can let one machine hog a job's budget — so only the
// saturation bound is a theorem.)
func TestMSMExtSaturationWithAmpleCapacity(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	prop := func(seed int64, nRaw, mRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRaw)%6
		m := 1 + int(mRaw)%5
		in := model.New(n, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				in.P[i][j] = rng.Float64()
			}
		}
		for j := 0; j < n; j++ {
			in.P[rng.Intn(m)][j] = 0.2 + 0.8*rng.Float64()
		}
		active := make([]bool, n)
		for j := range active {
			active[j] = true
		}
		// Capacity so large no machine can be the binding constraint:
		// every pair's budget is at most ceil(1/p) <= 1/0.001 per job.
		bigT := n * 100000
		mass := MassOfCounts(in, MSMExt(in, active, bigT))
		for j := 0; j < n; j++ {
			minP := 1.0
			for i := 0; i < m; i++ {
				if p := in.P[i][j]; p > 0.001 && p < minP {
					minP = p
				}
			}
			if minP == 1.0 {
				continue // only near-zero probabilities; budget math is degenerate
			}
			if mass[j] < 1-minP-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the rounding keeps zero entries zero (no mass invented on
// incapable machines) and never outputs a fractional-looking blow-up
// beyond Scale·Lambda·ceil(x)+slack on any single entry.
func TestRoundLPEntryBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(6)
		m := 2 + rng.Intn(8)
		in := workload.Independent(workload.Config{Jobs: n, Machines: m, Lo: 0.03, Hi: 0.6, Seed: rng.Int63()})
		chains := make([][]int, n)
		for j := 0; j < n; j++ {
			chains[j] = []int{j}
		}
		fs, err := SolveLP1(in, chains, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		ints, err := RoundLP(in, fs, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		slack := ints.Scale * ints.Lambda
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if in.P[i][j] == 0 && ints.X[i][j] != 0 {
					t.Fatalf("mass invented on zero-probability pair")
				}
				bound := slack*(int(fs.X[i][j])+2) + slack
				if ints.X[i][j] > bound {
					t.Fatalf("entry (%d,%d)=%d blows past %d (frac %v, S=%d λ=%d)",
						i, j, ints.X[i][j], bound, fs.X[i][j], ints.Scale, ints.Lambda)
				}
			}
		}
	}
}

// Failure injection: instances where one machine dominates everything
// still produce feasible schedules across pipelines.
func TestPipelinesWithDegenerateMatrices(t *testing.T) {
	builders := map[string]func() *model.Instance{
		"single-capable-machine": func() *model.Instance {
			in := model.New(4, 3)
			for j := 0; j < 4; j++ {
				in.P[0][j] = 0.4
			}
			return in
		},
		"near-one-probs": func() *model.Instance {
			in := model.New(4, 2)
			for i := 0; i < 2; i++ {
				for j := 0; j < 4; j++ {
					in.P[i][j] = 1.0
				}
			}
			return in
		},
		"tiny-probs": func() *model.Instance {
			in := model.New(3, 2)
			for i := 0; i < 2; i++ {
				for j := 0; j < 3; j++ {
					in.P[i][j] = 0.01
				}
			}
			return in
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			in := build()
			if res, err := SUUIOblivious(in, DefaultParams()); err != nil {
				t.Errorf("comb: %v", err)
			} else if res.Schedule.Validate(in.N) != nil {
				t.Error("comb schedule invalid")
			}
			if res, err := SUUIndependentLP(in, DefaultParams()); err != nil {
				t.Errorf("lp: %v", err)
			} else if res.Schedule.Validate(in.N) != nil {
				t.Error("lp schedule invalid")
			}
			in2 := build()
			in2.Prec.MustEdge(0, 1)
			if res, err := SUUForest(in2, DefaultParams()); err != nil {
				t.Errorf("forest: %v", err)
			} else if res.Schedule.Validate(in2.N) != nil {
				t.Error("forest schedule invalid")
			}
		})
	}
}

// The flattened chains prefix must assign each machine at most one job
// per step — guaranteed by construction, asserted here end to end.
func TestChainsPrefixNoDoubleBooking(t *testing.T) {
	in := workload.Chains(workload.Config{Jobs: 10, Machines: 4, Seed: 5}, 3)
	res, err := SUUChains(in, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for tt, a := range res.Schedule.Steps() {
		if len(a) != in.M {
			t.Fatalf("step %d wrong arity", tt)
		}
	}
}
