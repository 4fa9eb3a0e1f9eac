package sched

import (
	"math"
	"strings"
	"testing"

	"suu/internal/model"
)

func TestAnalyzePrefix(t *testing.T) {
	in := model.New(2, 2)
	in.P[0][0], in.P[0][1] = 0.5, 0.2
	in.P[1][0], in.P[1][1] = 0.1, 0.4
	o := NewOblivious(2, []Assignment{
		{0, Idle},
		{0, 1},
		{Idle, Idle},
		{Idle, 1},
	}, nil)
	st := AnalyzePrefix(in, o)
	if st.Steps != 4 {
		t.Fatalf("steps=%d", st.Steps)
	}
	if st.Utilization[0] != 0.5 || st.Utilization[1] != 0.5 {
		t.Errorf("utilization=%v", st.Utilization)
	}
	if st.FirstStep[0] != 0 || st.LastStep[0] != 1 {
		t.Errorf("job 0 window [%d,%d]", st.FirstStep[0], st.LastStep[0])
	}
	if st.FirstStep[1] != 1 || st.LastStep[1] != 3 {
		t.Errorf("job 1 window [%d,%d]", st.FirstStep[1], st.LastStep[1])
	}
	if math.Abs(st.Mass[0]-1.0) > 1e-12 || math.Abs(st.Mass[1]-0.8) > 1e-12 {
		t.Errorf("mass=%v", st.Mass)
	}
	if !strings.Contains(st.String(), "machine 0") {
		t.Error("report missing machine rows")
	}
}

func TestAnalyzePrefixEmptyAndUnassigned(t *testing.T) {
	in := model.New(1, 1)
	in.P[0][0] = 0.5
	st := AnalyzePrefix(in, &Oblivious{M: 1})
	if st.Steps != 0 || st.FirstStep[0] != -1 {
		t.Errorf("empty prefix stats wrong: %+v", st)
	}
}
