package suu

import (
	"encoding/json"
	"errors"
	"fmt"

	"suu/internal/sched"
)

// Learning returns the online-learning policy — an implementation of
// the paper's §5 "online versions" future-work direction. The policy
// does not read the instance's probabilities: it maintains Beta
// posteriors per (machine, job), schedules greedily on the (optionally
// optimistic) posterior means, and learns from simulated outcomes. The
// posterior persists across EstimateMakespan/RunOnce calls, so
// repeated evaluation trains it.
//
// WithOptimism(v) scales a UCB-style exploration bonus (0.5–1.0 works
// well; 0 disables exploration; default 0.7).
func Learning(x *Instance, opts ...Option) (*Schedule, error) {
	if err := x.Validate(); err != nil {
		return nil, err
	}
	return registrySchedule("learning", x, buildParams(opts))
}

// MustLearning is Learning panicking on error, for the callers that
// used the pre-redesign error-free signature; new code should call
// Learning.
func MustLearning(x *Instance, opts ...Option) *Schedule {
	s, err := Learning(x, opts...)
	if err != nil {
		panic(fmt.Sprintf("suu: learning: %v", err))
	}
	return s
}

// Gantt renders the first maxSteps steps of an oblivious schedule as a
// machine×time text chart ('.' = idle). Returns an error for adaptive
// schedules, which have no fixed timetable. maxSteps ≤ 0 renders the
// whole prefix.
func (s *Schedule) Gantt(maxSteps int) (string, error) {
	o, ok := s.policy.(*sched.Oblivious)
	if !ok {
		return "", errors.New("suu: Gantt requires an oblivious schedule")
	}
	return o.Gantt(maxSteps), nil
}

// MarshalJSON serializes an oblivious schedule (prefix + round-robin
// tail) for deployment; adaptive schedules are not serializable and
// return an error.
func (s *Schedule) MarshalJSON() ([]byte, error) {
	o, ok := s.policy.(*sched.Oblivious)
	if !ok {
		return nil, errors.New("suu: only oblivious schedules are serializable")
	}
	return json.Marshal(struct {
		Kind      string           `json:"kind"`
		Guarantee string           `json:"guarantee"`
		Schedule  *sched.Oblivious `json:"schedule"`
	}{s.Kind, s.Guarantee, o})
}

// LoadSchedule deserializes a schedule produced by MarshalJSON.
func LoadSchedule(data []byte) (*Schedule, error) {
	var raw struct {
		Kind      string           `json:"kind"`
		Guarantee string           `json:"guarantee"`
		Schedule  *sched.Oblivious `json:"schedule"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, err
	}
	if raw.Schedule == nil || raw.Schedule.M <= 0 {
		return nil, errors.New("suu: schedule payload missing")
	}
	return &Schedule{
		policy:    raw.Schedule,
		machines:  raw.Schedule.M,
		Kind:      raw.Kind,
		Guarantee: raw.Guarantee,
		PrefixLen: raw.Schedule.Len(),
	}, nil
}
