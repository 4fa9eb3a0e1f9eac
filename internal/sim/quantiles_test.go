package sim

import (
	"math"
	"slices"
	"testing"

	"suu/internal/model"
	"suu/internal/sched"
)

func TestMakespanQuantiles(t *testing.T) {
	in := model.New(1, 1)
	in.P[0][0] = 0.5
	pol := sched.PolicyFunc(func(st *sched.State) sched.Assignment {
		return sched.Assignment{0}
	})
	qs, xs := MakespanQuantilesParallel(in, pol, 4000, 10000, 5, []float64{0.5, 0.9}, 1)
	if len(xs) != 4000 {
		t.Fatalf("sample size %d", len(xs))
	}
	// Geometric(1/2): median 1, q90 ∈ {3,4}.
	if qs[0] > 2 {
		t.Errorf("median %v, want <= 2", qs[0])
	}
	if qs[1] < 2 || qs[1] > 5 {
		t.Errorf("q90 %v outside [2,5]", qs[1])
	}
	if math.IsNaN(qs[0]) {
		t.Error("NaN quantile")
	}
	// Quantiles agree with the seeds used by Estimate (same derivation).
	sum, _, _ := EstimateParallelInfo(in, pol, 4000, 10000, 5, 1)
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if math.Abs(mean-sum.Mean) > 1e-12 {
		t.Errorf("sample mean %v != Estimate mean %v (seed derivation drifted)", mean, sum.Mean)
	}
}

// TestMakespanQuantilesMatchEstimate pins MakespanQuantiles to
// Estimate's sample at a rep count where the lane engine runs: the
// quantile sample's extremes must equal the summary's and its mean
// must match to rounding.
func TestMakespanQuantilesMatchEstimate(t *testing.T) {
	in, o := chainsFixture()
	const reps, cap, seed = 1000, 100000, 67
	sum, _, eng := EstimateParallelInfo(in, o, reps, cap, seed, 1)
	if eng.Engine != EngineLane {
		t.Fatalf("engine %+v, want the lane engine at %d reps", eng, reps)
	}
	_, xs := MakespanQuantilesParallel(in, o, reps, cap, seed, []float64{0.5}, 1)
	lo, hi, mean := xs[0], xs[0], 0.0
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
		mean += x
	}
	mean /= float64(len(xs))
	if lo != sum.Min || hi != sum.Max {
		t.Errorf("sample range [%v, %v], Estimate range [%v, %v]", lo, hi, sum.Min, sum.Max)
	}
	if math.Abs(mean-sum.Mean) > 1e-9*sum.Mean {
		t.Errorf("sample mean %v, Estimate mean %v", mean, sum.Mean)
	}
}

// TestMakespanQuantilesWorkerInvariant fans the quantile walks out:
// at 4 workers the sample and its quantiles must be bit-identical to 1
// worker, on the scalar walk and the lane walk, with a partial final
// unit and more than one window.
func TestMakespanQuantilesWorkerInvariant(t *testing.T) {
	in, o := chainsFixture()
	const cap, seed = 100000, 71
	qs := []float64{0.1, 0.5, 0.9, 0.99}
	for _, reps := range []int{101, 1000, 4200} {
		wantQ, wantXs := MakespanQuantilesParallel(in, o, reps, cap, seed, qs, 1)
		gotQ, gotXs := MakespanQuantilesParallel(in, o, reps, cap, seed, qs, 4)
		if !slices.Equal(gotXs, wantXs) || !slices.Equal(gotQ, wantQ) {
			t.Errorf("reps %d: the 4-worker sample or quantiles %v differ from 1 worker's %v", reps, gotQ, wantQ)
		}
		if _, seq := MakespanQuantilesParallel(in, o, reps, cap, seed, qs, 1); !slices.Equal(seq, wantXs) {
			t.Errorf("reps %d: MakespanQuantilesParallel's sample differs from MakespanQuantiles'", reps)
		}
	}
}
