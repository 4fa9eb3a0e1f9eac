package sched

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Gantt renders the first maxSteps steps of the oblivious prefix as a
// machine×time text chart: one row per machine, one column per step,
// each cell the job index (or '.' for idle). Useful for inspecting
// window structure, delays and replication; the projectmgmt example
// prints one as the manager's calendar.
func (o *Oblivious) Gantt(maxSteps int) string {
	steps := o.Len()
	if maxSteps > 0 && maxSteps < steps {
		steps = maxSteps
	}
	width := 1
	for t, a := range o.Steps() {
		if t == steps {
			break
		}
		for _, j := range a {
			if l := len(strconv.Itoa(j)); j != Idle && l > width {
				width = l
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "t=0..%d (of %d)\n", steps-1, o.Len())
	for i := 0; i < o.M; i++ {
		fmt.Fprintf(&b, "m%-2d |", i)
		for t, a := range o.Steps() {
			if t == steps {
				break
			}
			if j := a[i]; j == Idle {
				fmt.Fprintf(&b, " %*s", width, ".")
			} else {
				fmt.Fprintf(&b, " %*d", width, j)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// obliviousJSON is the portable representation of an oblivious
// schedule: the prefix expanded to one entry per step, not its runs.
// The tail, when present, is always the topological round-robin and is
// stored as its job order.
type obliviousJSON struct {
	Machines  int     `json:"machines"`
	Steps     [][]int `json:"steps"` // -1 encodes Idle
	TailOrder []int   `json:"tail_order,omitempty"`
}

// MarshalJSON implements json.Marshaler. It writes the bytes
// encoding/json writes for obliviousJSON, one entry per step, without
// building that expanded copy of the prefix. Only TopoRoundRobin tails
// are representable; other tails are dropped with the prefix preserved.
func (o *Oblivious) MarshalJSON() ([]byte, error) {
	b := make([]byte, 0, 64+o.Len()*(2+3*o.M))
	b = append(b, `{"machines":`...)
	b = strconv.AppendInt(b, int64(o.M), 10)
	b = append(b, `,"steps":`...)
	if o.Len() == 0 {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for t, a := range o.Steps() {
			if t > 0 {
				b = append(b, ',')
			}
			b = appendInts(b, a)
		}
		b = append(b, ']')
	}
	if rr, ok := o.Tail.(*TopoRoundRobin); ok && len(rr.Order) > 0 {
		b = append(b, `,"tail_order":`...)
		b = appendInts(b, rr.Order)
	}
	return append(b, '}'), nil
}

// appendInts appends xs as encoding/json writes a copy of it made by
// append([]int(nil), xs...): an array, or null when xs is empty.
func appendInts(b []byte, xs []int) []byte {
	if len(xs) == 0 {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// UnmarshalJSON implements json.Unmarshaler. It merges the steps into
// runs as NewOblivious does, and leaves o as it was on an error.
func (o *Oblivious) UnmarshalJSON(data []byte) error {
	var raw obliviousJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	if raw.Machines <= 0 {
		return fmt.Errorf("sched: bad machine count %d", raw.Machines)
	}
	out := Oblivious{M: raw.Machines}
	for t, a := range raw.Steps {
		if len(a) != raw.Machines {
			return fmt.Errorf("sched: step %d has %d entries, want %d", t, len(a), raw.Machines)
		}
		out.push(a, 1)
	}
	if len(raw.TailOrder) > 0 {
		out.Tail = &TopoRoundRobin{M: raw.Machines, Order: raw.TailOrder}
	} else if out.Len() == 0 {
		return errors.New("sched: empty schedule with no tail order")
	}
	out.reindex()
	*o = out
	return nil
}
