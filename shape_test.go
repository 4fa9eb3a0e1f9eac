package suu

import (
	"fmt"
	"strings"
	"testing"
)

// gridInstance returns an n-job, m-machine independent instance with
// every pair workable.
func gridInstance(n, m int) *Instance {
	x := NewInstance(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			x.SetProb(i, j, 0.2+0.6*float64((i*7+j*3)%5)/4)
		}
	}
	return x
}

// TestScheduleShapeMismatch: a schedule estimated on an instance of
// another shape is an error — a panic naming both shapes for RunOnce,
// which has no error result — never an index panic inside the engine
// or a silently capped estimate.
func TestScheduleShapeMismatch(t *testing.T) {
	built, other := gridInstance(6, 2), gridInstance(9, 3)
	solved, err := Solve(built, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := Adaptive(built)
	if err != nil {
		t.Fatal(err)
	}
	data, err := solved.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSchedule(data)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Schedule{"solve": solved, "adaptive": adaptive, "loaded": loaded} {
		opts := []Option{WithSeed(3), WithMaxSteps(5000)}
		if est, err := s.EstimateMakespan(other, 10, opts...); err == nil {
			t.Errorf("%s: EstimateMakespan on 9x3 = %+v, want a shape error", name, est)
		}
		if q, err := s.MakespanQuantiles(other, 10, []float64{0.5}, opts...); err == nil {
			t.Errorf("%s: MakespanQuantiles on 9x3 = %v, want a shape error", name, q)
		}
		if est, err := NewScenario(other).EstimateMakespan(s, 10, opts...); err == nil {
			t.Errorf("%s: Scenario.EstimateMakespan on 9x3 = %+v, want a shape error", name, est)
		}
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "2 machines") || !strings.Contains(msg, "9 jobs × 3 machines") {
					t.Errorf("%s: RunOnce on 9x3 panicked with %q, want both shapes named", name, msg)
				}
			}()
			s.RunOnce(other, 3, 5000)
		}()
		est, err := s.EstimateMakespan(built, 10, opts...)
		if err != nil || est.Incomplete != 0 {
			t.Errorf("%s: EstimateMakespan on its own instance = %+v, %v", name, est, err)
		}
	}
}
