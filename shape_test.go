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

// TestLoadedScheduleNamesUnknownJob: a loaded payload records no job
// count, so a prefix step or a tail order naming a job the instance
// lacks must be refused at estimate time, not run to the step cap.
func TestLoadedScheduleNamesUnknownJob(t *testing.T) {
	x := gridInstance(1, 1)
	for name, payload := range map[string]string{
		"prefix": `{"kind":"x","schedule":{"machines":1,"steps":[[7]]}}`,
		"tail":   `{"kind":"x","schedule":{"machines":1,"steps":[],"tail_order":[5]}}`,
	} {
		s, err := LoadSchedule([]byte(payload))
		if err != nil {
			t.Fatalf("%s: LoadSchedule: %v", name, err)
		}
		opts := []Option{WithSeed(3), WithMaxSteps(1000)}
		if est, err := s.EstimateMakespan(x, 20, opts...); err == nil {
			t.Errorf("%s: EstimateMakespan = %v, want an error", name, est)
		}
		if q, err := s.MakespanQuantiles(x, 20, []float64{0.5}, opts...); err == nil {
			t.Errorf("%s: MakespanQuantiles = %v, want an error", name, q)
		}
		if est, err := NewScenario(x).EstimateMakespan(s, 20, opts...); err == nil {
			t.Errorf("%s: Scenario.EstimateMakespan = %v, want an error", name, est)
		}
		if est, err := NewScenario(x).ArriveAt(0, 2).EstimateMakespan(s, 20, opts...); err == nil {
			t.Errorf("%s: Scenario.EstimateMakespan with an arrival = %v, want an error", name, est)
		}
	}
}
