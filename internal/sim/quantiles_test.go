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
	qs, xs := MakespanQuantiles(in, pol, 4000, 10000, 5, []float64{0.5, 0.9})
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
	sum, _ := Estimate(in, pol, 4000, 10000, 5)
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	if math.Abs(mean-sum.Mean) > 1e-12 {
		t.Errorf("sample mean %v != Estimate mean %v (seed derivation drifted)", mean, sum.Mean)
	}
}

// TestMakespanP2QuantilesLaneDrainOrder is the P²-under-lanes
// contract: P² is order-sensitive, so when samples arrive 64 at a
// time from the lane engine, the drain order within each word must be
// lane order — the pinned scalar remap's repetition order. Feeding
// the estimators from the lane engine and from the one-lane-at-a-time
// oracle must therefore agree to the last bit, including with a
// partial final group.
func TestMakespanP2QuantilesLaneDrainOrder(t *testing.T) {
	in, o := chainsFixture()
	const cap, seed = 100000, 61
	qs := []float64{0.5, 0.9, 0.99}
	for _, reps := range []int{100, 1000} {
		lane := makespanP2Quantiles(in, o, reps, cap, seed, qs, lanesOn)
		oracle := makespanP2Quantiles(in, o, reps, cap, seed, qs, lanesOracle)
		for k := range qs {
			if lane[k] != oracle[k] {
				t.Errorf("reps %d q%v: lane %v != oracle %v (drain order drifted)",
					reps, qs[k], lane[k], oracle[k])
			}
		}
		// Sanity: the estimates sit inside the sample's support.
		off := makespanP2Quantiles(in, o, reps, cap, seed, qs, lanesOff)
		for k := 1; k < len(qs); k++ {
			if lane[k] < lane[k-1] || off[k] < off[k-1] {
				t.Errorf("reps %d: non-monotone quantiles lane=%v scalar=%v", reps, lane, off)
			}
		}
	}

	// The scalar path keeps matching MakespanQuantiles' sample order.
	exact, xs := makespanQuantiles(in, o, 400, cap, seed, qs, lanesOff)
	p2 := makespanP2Quantiles(in, o, 400, cap, seed, qs, lanesOff)
	if len(xs) != 400 {
		t.Fatalf("sample size %d", len(xs))
	}
	for k := range qs {
		if math.Abs(p2[k]-exact[k]) > 3+0.1*exact[k] {
			t.Errorf("q%v: P² %v far from exact %v", qs[k], p2[k], exact[k])
		}
	}
}

// TestMakespanQuantilesMatchEstimate pins MakespanQuantiles to
// Estimate's sample at a rep count where the lane engine runs: the
// quantile sample's extremes must equal the summary's and its mean
// must match to rounding.
func TestMakespanQuantilesMatchEstimate(t *testing.T) {
	in, o := chainsFixture()
	const reps, cap, seed = 1000, 100000, 67
	sum, _, eng := EstimateInfo(in, o, reps, cap, seed)
	if eng.Engine != EngineLane {
		t.Fatalf("engine %+v, want the lane engine at %d reps", eng, reps)
	}
	_, xs := MakespanQuantiles(in, o, reps, cap, seed, []float64{0.5})
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
// at 4 workers the sample, its quantiles and the P² estimates must be
// bit-identical to 1 worker, on the scalar walk and the lane walk,
// with a partial final unit and more than one window.
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
		if _, seq := MakespanQuantiles(in, o, reps, cap, seed, qs); !slices.Equal(seq, wantXs) {
			t.Errorf("reps %d: MakespanQuantilesParallel's sample differs from MakespanQuantiles'", reps)
		}
		want := p2Quantiles(in, o, reps, cap, seed, qs, 1, lanesAuto)
		if got := p2Quantiles(in, o, reps, cap, seed, qs, 4, lanesAuto); !slices.Equal(got, want) {
			t.Errorf("reps %d: P² at 4 workers %v, at 1 worker %v", reps, got, want)
		}
	}
}
