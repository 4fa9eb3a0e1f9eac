package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
)

// Gantt renders the first maxSteps steps of the oblivious prefix as a
// machine×time text chart: one row per machine, one column per step,
// each cell the job index (or '.' for idle). Useful for inspecting
// window structure, delays and replication; the projectmgmt example
// prints one as the manager's calendar.
func (o *Oblivious) Gantt(maxSteps int) string {
	steps := len(o.Steps)
	if maxSteps > 0 && maxSteps < steps {
		steps = maxSteps
	}
	width := 1
	for _, a := range o.Steps[:steps] {
		for _, j := range a {
			if l := len(fmt.Sprint(j)); j != Idle && l > width {
				width = l
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "t=0..%d (of %d)\n", steps-1, len(o.Steps))
	for i := 0; i < o.M; i++ {
		fmt.Fprintf(&b, "m%-2d |", i)
		for t := 0; t < steps; t++ {
			j := o.Steps[t][i]
			if j == Idle {
				fmt.Fprintf(&b, " %*s", width, ".")
			} else {
				fmt.Fprintf(&b, " %*d", width, j)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// obliviousJSON is the portable representation of an oblivious prefix.
// The tail, when present, is always the topological round-robin and is
// stored as its job order.
type obliviousJSON struct {
	Machines  int     `json:"machines"`
	Steps     [][]int `json:"steps"` // -1 encodes Idle
	TailOrder []int   `json:"tail_order,omitempty"`
}

// MarshalJSON implements json.Marshaler. Only TopoRoundRobin tails are
// representable; other tails are dropped with the prefix preserved.
func (o *Oblivious) MarshalJSON() ([]byte, error) {
	out := obliviousJSON{Machines: o.M}
	for _, a := range o.Steps {
		out.Steps = append(out.Steps, append([]int(nil), a...))
	}
	if rr, ok := o.Tail.(*TopoRoundRobin); ok {
		out.TailOrder = rr.Order
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler.
func (o *Oblivious) UnmarshalJSON(data []byte) error {
	var raw obliviousJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw.Machines <= 0 {
		return fmt.Errorf("sched: bad machine count %d", raw.Machines)
	}
	o.M = raw.Machines
	o.Steps = nil
	for t, a := range raw.Steps {
		if len(a) != raw.Machines {
			return fmt.Errorf("sched: step %d has %d entries, want %d", t, len(a), raw.Machines)
		}
		o.Steps = append(o.Steps, Assignment(append([]int(nil), a...)))
	}
	o.Tail = nil
	if len(raw.TailOrder) > 0 {
		o.Tail = &TopoRoundRobin{M: raw.Machines, Order: raw.TailOrder}
	} else if len(o.Steps) == 0 {
		return errors.New("sched: empty schedule with no tail order")
	}
	return nil
}
