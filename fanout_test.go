package suu

import (
	"fmt"
	"slices"
	"testing"
)

// TestSmallRepFanOut checks WithWorkers at repetition counts below
// and above one 256-repetition chunk, for every engine and every
// scenario strategy (arrivals, an outage and bursts): the estimate is
// bit-identical at 1, 2 and 5 workers, and 2 workers run as 2 even at
// 32 repetitions. MakespanQuantiles is bit-identical at 4 workers.
func TestSmallRepFanOut(t *testing.T) {
	x := parityInstance()
	s, err := Solve(x, WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	ad, err := Adaptive(x)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := NewBaseline(x, BaselineRoundRobin, 7)
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScenario(x).
		ArriveAt(5, 6).
		Breakdown(0, 2, 8).
		Burst(-1, 0.2, 0.9, 0.4)
	calls := []struct {
		name, engine string
		est          func(reps int, opts ...Option) (Estimate, error)
	}{
		{"generic", "generic", func(reps int, opts ...Option) (Estimate, error) { return rr.EstimateMakespan(x, reps, opts...) }},
		{"compiled", "compiled", func(reps int, opts ...Option) (Estimate, error) { return s.EstimateMakespan(x, reps, opts...) }},
		{"compiled-adaptive", "compiled-adaptive", func(reps int, opts ...Option) (Estimate, error) { return ad.EstimateMakespan(x, reps, opts...) }},
		{"scenario static", "dynamic-step", func(reps int, opts ...Option) (Estimate, error) { return sc.EstimateMakespan(s, reps, opts...) }},
		{"scenario adaptive", "dynamic-step", sc.EstimateAdaptive},
		{"scenario rolling", "dynamic-step", func(reps int, opts ...Option) (Estimate, error) {
			return sc.EstimateRolling(reps, append(opts, WithSeed(7))...)
		}},
	}
	for _, c := range calls {
		for _, reps := range []int{32, 300} {
			engine := c.engine
			if engine == "compiled" && reps >= 256 {
				engine = "compiled-lane"
			}
			var want Estimate
			for _, workers := range []int{1, 2, 5} {
				name := fmt.Sprintf("%s reps=%d workers=%d", c.name, reps, workers)
				got, err := c.est(reps, WithSimSeed(3), WithWorkers(workers))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if got.Engine.Name != engine {
					t.Fatalf("%s: engine %q, want %q", name, got.Engine.Name, engine)
				}
				if workers == 2 && got.Engine.Workers != 2 {
					t.Errorf("%s: ran %d workers", name, got.Engine.Workers)
				}
				got.Engine.Workers = 1
				if workers == 1 {
					want = got
				} else if got != want {
					t.Errorf("%s: %+v, at 1 worker %+v", name, got, want)
				}
			}
		}
	}
	qs := []float64{0.5, 0.9}
	q1, err := s.MakespanQuantiles(x, 300, qs, WithSimSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	q4, err := s.MakespanQuantiles(x, 300, qs, WithSimSeed(3), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(q1, q4) {
		t.Errorf("MakespanQuantiles at 4 workers %v, at 1 worker %v", q4, q1)
	}
}
