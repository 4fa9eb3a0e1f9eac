package core

import (
	"errors"
	"fmt"
	"math"

	"suu/internal/model"
	"suu/internal/sched"
)

// OblResult carries an oblivious construction together with the
// quantities the analysis certifies, for reporting and validation.
type OblResult struct {
	// Schedule is the final oblivious schedule (prefix + tail). Its
	// prefix already includes replication where the construction calls
	// for it.
	Schedule *sched.Oblivious
	// CoreLength is the length of the pre-replication prefix in which
	// every job accumulates MassAchieved.
	CoreLength int
	// MassAchieved is the minimum per-job mass certified over the core
	// prefix.
	MassAchieved float64
	// TGuess is the final doubling value of t (SUU-I-OBL) or the
	// rounded LP length bound (LP pipelines).
	TGuess int
	// Rounds is the number of peeling rounds used (SUU-I-OBL).
	Rounds int
}

// SUUIOblivious is SUU-I-OBL (Algorithm 2, Lemma 3.5 and Theorem 3.6):
// a combinatorial construction of an oblivious schedule for
// independent jobs in which every job accumulates mass at least
// PeelThreshold within a prefix of length O(log n)·T_OPT; the returned
// schedule cycles that prefix forever (Σ_o^∞), giving expected
// makespan O(log² n)·T_OPT.
//
// The doubling search probes t = 1, 2, 4, ...; for each t it runs up
// to ⌈PeelRoundsFactor·log₂ n⌉ invocations of MSM-E-ALG, after each of
// which the jobs that accumulated PeelThreshold mass are peeled.
func SUUIOblivious(in *model.Instance, par Params) (*OblResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.Prec.E() != 0 {
		return nil, errors.New("core: SUU-I-OBL requires independent jobs")
	}
	maxRounds := par.PeelRoundsFactor * log2Ceil(in.N)
	if maxRounds < 1 {
		maxRounds = 1
	}
	order := NewPairOrder(in) // one order for every MSM-E-ALG round
	t := 1
	for doubling := 0; doubling <= par.MaxDoublings; doubling++ {
		remaining := make([]bool, in.N)
		for j := range remaining {
			remaining[j] = true
		}
		left := in.N
		var parts []*sched.Oblivious
		rounds := 0
		for left > 0 && rounds < maxRounds {
			x := order.ext(remaining, t)
			mass := MassOfCounts(in, x)
			parts = append(parts, ScheduleFromCounts(in, x, t))
			for j := 0; j < in.N; j++ {
				if remaining[j] && mass[j] >= par.PeelThreshold-1e-12 {
					remaining[j] = false
					left--
				}
			}
			rounds++
		}
		if left == 0 {
			obl := sched.Concat(parts...) // nil tail: cycles the prefix (Σ_o^∞)
			return &OblResult{
				Schedule:     obl,
				CoreLength:   obl.Len(),
				MassAchieved: par.PeelThreshold,
				TGuess:       t,
				Rounds:       rounds,
			}, nil
		}
		if t > math.MaxInt32 {
			break
		}
		t *= 2
	}
	return nil, fmt.Errorf("core: SUU-I-OBL did not converge within %d doublings", par.MaxDoublings)
}
