package sched

import (
	"fmt"
	"strings"

	"suu/internal/model"
)

// PrefixStats summarizes the structure of an oblivious prefix: how
// busy the machines are and where each job's service window lies.
type PrefixStats struct {
	Steps int
	// Utilization[i] is the fraction of prefix steps machine i is
	// assigned to some job.
	Utilization []float64
	// FirstStep[j] and LastStep[j] bound job j's assignments (-1 when
	// the job never appears).
	FirstStep, LastStep []int
	// Mass[j] is the job's total accumulated mass over the prefix.
	Mass []float64
}

// AnalyzePrefix computes PrefixStats for the prefix of o on instance
// in.
func AnalyzePrefix(in *model.Instance, o *Oblivious) PrefixStats {
	st := PrefixStats{
		Steps:       o.Len(),
		Utilization: make([]float64, o.M),
		FirstStep:   make([]int, in.N),
		LastStep:    make([]int, in.N),
		Mass:        make([]float64, in.N),
	}
	for j := range st.FirstStep {
		st.FirstStep[j] = -1
		st.LastStep[j] = -1
	}
	for t, a := range o.Steps() {
		for i, j := range a {
			if j == Idle {
				continue
			}
			st.Utilization[i]++
			st.Mass[j] += in.P[i][j]
			if st.FirstStep[j] == -1 {
				st.FirstStep[j] = t
			}
			st.LastStep[j] = t
		}
	}
	if st.Steps > 0 {
		for i := range st.Utilization {
			st.Utilization[i] /= float64(st.Steps)
		}
	}
	return st
}

// String renders a compact report.
func (s PrefixStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "prefix: %d steps\n", s.Steps)
	for i, u := range s.Utilization {
		fmt.Fprintf(&b, "  machine %d: %.1f%% busy\n", i, 100*u)
	}
	for j := range s.Mass {
		fmt.Fprintf(&b, "  job %d: window [%d,%d], mass %.2f\n", j, s.FirstStep[j], s.LastStep[j], s.Mass[j])
	}
	return b.String()
}
