package core

import (
	"math"

	"suu/internal/model"
	"suu/internal/sched"
)

// MSMExt is MSM-E-ALG (Algorithm 1): the length-t extension of MSM-ALG
// with the same 1/3 approximation factor for MaxSumMass-Ext
// (Lemma 3.4). It returns the per-pair step counts x[i][j] (machine i
// spends x[i][j] of its t available steps on job j). Only jobs with
// active[j] participate.
//
// The greedy processes p_ij in non-increasing order and gives job j as
// many steps of machine i as fit under both the machine's remaining
// capacity t_i and the job's remaining mass budget
// (1 − Σ_k x_kj·p_kj)/p_ij.
func MSMExt(in *model.Instance, active []bool, t int) [][]int {
	return newPairOrder(in, active).ext(active, t)
}

// ext is MSM-E-ALG over the order (see MSMExt). The scan skips
// inactive jobs and machines whose capacity is spent, and stops once
// every machine's capacity is.
func (o *PairOrder) ext(active []bool, t int) [][]int {
	if t < 0 {
		panic("core: negative schedule length")
	}
	x := make([][]int, o.m)
	for i := range x {
		x[i] = make([]int, o.n)
	}
	ti := make([]int, o.m)
	for i := range ti {
		ti[i] = t
	}
	open := o.m // machines with capacity left
	if t == 0 {
		open = 0
	}
	mass := make([]float64, o.n)
	for _, pr := range o.pairs {
		if open == 0 {
			break
		}
		if !active[pr.j] || ti[pr.i] == 0 {
			continue
		}
		budget := int(math.Floor((1 - mass[pr.j]) / pr.p))
		if budget <= 0 {
			continue
		}
		take := min(budget, ti[pr.i])
		x[pr.i][pr.j] = take
		ti[pr.i] -= take
		mass[pr.j] += float64(take) * pr.p
		if ti[pr.i] == 0 {
			open--
		}
	}
	return x
}

// ScheduleFromCounts converts step counts x[i][j] into an oblivious
// prefix of length t: machine i serves its jobs consecutively in job-
// index order, exactly as the output specification of MSM-E-ALG
// (f_τ(i) = j_k for Σ_{l<k} x_{i,j_l} < τ ≤ Σ_{l≤k} x_{i,j_l}).
// Steps beyond a machine's total count are Idle.
func ScheduleFromCounts(in *model.Instance, x [][]int, t int) *sched.Oblivious {
	steps := make([]sched.Assignment, t)
	for s := range steps {
		steps[s] = sched.NewIdle(in.M)
	}
	for i := 0; i < in.M; i++ {
		pos := 0
		for j := 0; j < in.N; j++ {
			for k := 0; k < x[i][j]; k++ {
				if pos >= t {
					panic("core: counts exceed schedule length")
				}
				steps[pos][i] = j
				pos++
			}
		}
	}
	return &sched.Oblivious{M: in.M, Steps: steps}
}

// MassOfCounts returns the per-job (uncapped) mass of a count matrix.
func MassOfCounts(in *model.Instance, x [][]int) []float64 {
	mass := make([]float64, in.N)
	for i := range x {
		for j, c := range x[i] {
			if c > 0 {
				mass[j] += float64(c) * in.P[i][j]
			}
		}
	}
	return mass
}
