package sched

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzObliviousJSON feeds arbitrary bytes to the schedule decoder, the
// one suu.LoadSchedule runs on a user's file: an input either fails
// UnmarshalJSON, or decodes to a schedule whose MarshalJSON bytes are a
// fixed point (decoded and encoded again, they come back the same)
// and decode to the same machine count, runs, run ends and tail order.
// Nothing may panic.
func FuzzObliviousJSON(f *testing.F) {
	f.Add([]byte(`{"machines":2,"steps":[[0,1],[-1,0]],"tail_order":[1,0]}`))
	f.Add([]byte(`{"machines":1,"steps":[[0],[0],[0],[1],[0]]}`))
	f.Add([]byte(`{"machines":1,"steps":null,"tail_order":[5]}`))
	f.Add([]byte(`{"machines":3,"steps":[[0,6,-2],[99,1,1]],"tail_order":[]}`))
	f.Add([]byte(`{"machines":0,"steps":[]}`))
	f.Add([]byte(`{`))
	f.Fuzz(func(t *testing.T, data []byte) {
		o := &Oblivious{}
		if err := o.UnmarshalJSON(data); err != nil {
			return
		}
		enc, err := o.MarshalJSON()
		if err != nil {
			t.Fatalf("an accepted schedule does not encode: %v", err)
		}
		back := &Oblivious{}
		if err := back.UnmarshalJSON(enc); err != nil {
			t.Fatalf("the encoding %s does not decode: %v", enc, err)
		}
		again, err := back.MarshalJSON()
		if err != nil {
			t.Fatalf("the decoded encoding does not encode: %v", err)
		}
		if !bytes.Equal(again, enc) {
			t.Fatalf("the encoding is not a fixed point:\n%s\n%s", enc, again)
		}
		runs, ends := o.Runs()
		backRuns, backEnds := back.Runs()
		if back.M != o.M || !slices.Equal(backEnds, ends) ||
			!slices.EqualFunc(backRuns, runs, slices.Equal[Assignment]) ||
			!slices.Equal(tailOrder(back), tailOrder(o)) {
			t.Fatalf("%s decodes to M %d, runs %v, ends %v, tail %v; the input gave M %d, runs %v, ends %v, tail %v",
				enc, back.M, backRuns, backEnds, tailOrder(back), o.M, runs, ends, tailOrder(o))
		}
	})
}

// tailOrder is o's round-robin tail order, nil without one.
func tailOrder(o *Oblivious) []int {
	if rr, ok := o.Tail.(*TopoRoundRobin); ok {
		return rr.Order
	}
	return nil
}
