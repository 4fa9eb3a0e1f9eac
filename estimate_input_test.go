package suu

import "testing"

// Every public estimate rejects a repetition count or a step cap that
// is not positive with an error, where it used to panic or return the
// cap as the mean.
func TestEstimatesRejectBadInput(t *testing.T) {
	x := tinyIndependent()
	s, err := Solve(x)
	if err != nil {
		t.Fatal(err)
	}
	static := NewScenario(x)
	dynamic := NewScenario(x).ArriveAt(2, 3).Burst(0, 0.2, 0.9, 0.5)
	estimates := map[string]func(reps int, opts ...Option) error{
		"Schedule.EstimateMakespan": func(reps int, opts ...Option) error {
			_, err := s.EstimateMakespan(x, reps, opts...)
			return err
		},
		"Schedule.MakespanQuantiles": func(reps int, opts ...Option) error {
			_, err := s.MakespanQuantiles(x, reps, []float64{0.5}, opts...)
			return err
		},
	}
	for name, sc := range map[string]*Scenario{"static": static, "dynamic": dynamic} {
		estimates[name+" Scenario.EstimateMakespan"] = func(reps int, opts ...Option) error {
			_, err := sc.EstimateMakespan(s, reps, opts...)
			return err
		}
		estimates[name+" Scenario.EstimateAdaptive"] = func(reps int, opts ...Option) error {
			_, err := sc.EstimateAdaptive(reps, opts...)
			return err
		}
		estimates[name+" Scenario.EstimateRolling"] = func(reps int, opts ...Option) error {
			_, err := sc.EstimateRolling(reps, opts...)
			return err
		}
	}
	for name, estimate := range estimates {
		if err := estimate(20); err != nil {
			t.Fatalf("%s: valid input rejected: %v", name, err)
		}
		for _, reps := range []int{0, -3} {
			if err := estimate(reps); err == nil {
				t.Errorf("%s: reps %d accepted", name, reps)
			}
		}
		for _, steps := range []int{0, -5} {
			if err := estimate(20, WithMaxSteps(steps)); err == nil {
				t.Errorf("%s: WithMaxSteps(%d) accepted", name, steps)
			}
		}
	}
}
