package sched

import (
	"bytes"
	"slices"
	"testing"

	"suu/internal/model"
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

// FuzzBestDelays holds BestDelays and MaxCongestion to the cell count
// (checkBestDelays) on pseudo-schedules decoded from bytes. The first
// bytes give the machine count (1–16), the track count (1–24), the
// delay range, the tries (1–64) and the rng seed; then each track reads
// a run count and, per run, a length (1–8) and one byte per machine:
// Idle when the byte is 0 modulo 7, else job byte%7 − 1. Bytes past
// the end read as 0, so a short input ends in empty tracks.
func FuzzBestDelays(f *testing.F) {
	f.Add([]byte{1, 1, 0, 0, 0})
	f.Add([]byte{1, 2, 3, 15, 7, 2, 0, 1, 1, 2, 2, 1, 1, 2, 3, 2, 4, 1})
	f.Add([]byte{3, 3, 9, 63, 42, 3, 2, 1, 0, 2, 3, 1, 0, 3, 5, 5, 5, 2, 4, 0, 0, 1, 1, 6, 0, 2, 1, 2, 4, 3, 2, 1, 1, 0, 0})
	f.Add([]byte{15, 23, 200, 255, 1, 9, 1, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 5, 6, 0, 1, 2, 7, 6, 5, 4, 3, 2, 1, 0, 6, 5, 4, 3, 2, 1, 0, 6, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		m, tracks, delay, tries, seed := 1+next()%16, 1+next()%24, next(), 1+next()%64, int64(next())
		p := &Pseudo{M: m, Tracks: make([]*Oblivious, tracks)}
		for k := range p.Tracks {
			runs := make([]Assignment, next()%10)
			counts := make([]int, len(runs))
			for r := range runs {
				counts[r] = 1 + next()%8
				runs[r] = NewIdle(m)
				for i := range runs[r] {
					runs[r][i] = next()%7 - 1
				}
			}
			p.Tracks[k] = NewObliviousRuns(m, runs, counts, nil)
		}
		checkBestDelays(t, p, delay%(p.Len()+4), tries, seed)
	})
}

// FuzzFlatten holds Flatten to flattenSteps, its step-by-step
// reference, on pseudo-schedules decoded from bytes. The first bytes
// give the machine count (1–6), the track count (1–8) and whether
// there is a delay vector (none when the byte is even); then each
// track reads a run count (0–5) and, per run, a length (1–4) and one
// byte per machine: Idle when the byte is 0 modulo 5, else job
// byte%5 − 1; then, with a delay vector, one delay per track in
// [0, 20]. Bytes past the end read as 0, so a short input ends in
// idle runs and empty tracks.
func FuzzFlatten(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 1})
	f.Add([]byte{1, 2, 1, 2, 0, 1, 3, 2, 1, 0, 0, 1, 1, 2, 3, 5})
	f.Add([]byte{2, 3, 0, 3, 1, 1, 2, 0, 0, 0, 3, 6, 7, 2, 4, 2, 1, 3, 0, 1, 1, 4, 9})
	f.Add([]byte{5, 7, 1, 5, 3, 1, 2, 3, 4, 0, 6, 2, 5, 0, 0, 0, 0, 0, 0, 3, 1, 1, 1, 1, 1, 1, 2, 2, 9, 8, 7, 6, 5, 4, 3, 2, 1, 20, 0, 13, 4})
	f.Add([]byte{3, 4, 1, 0, 0, 0, 0, 20, 7, 20, 3})
	f.Add([]byte{0, 1, 1, 0, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		m, tracks, delayed := 1+next()%6, 1+next()%8, next()%2 == 1
		p := &Pseudo{M: m, Tracks: make([]*Oblivious, tracks)}
		for k := range p.Tracks {
			runs := make([]Assignment, next()%6)
			counts := make([]int, len(runs))
			for r := range runs {
				counts[r] = 1 + next()%4
				runs[r] = NewIdle(m)
				for i := range runs[r] {
					runs[r][i] = next()%5 - 1
				}
			}
			p.Tracks[k] = NewObliviousRuns(m, runs, counts, nil)
		}
		var delays []int
		if delayed {
			delays = make([]int, tracks)
			for k := range delays {
				delays[k] = next() % 21
			}
		}
		got := p.Flatten(delays)
		want := NewOblivious(m, flattenSteps(p, delays), nil)
		runs, ends := got.Runs()
		wantRuns, wantEnds := want.Runs()
		if got.M != m || got.Tail != nil || !slices.Equal(ends, wantEnds) ||
			!slices.EqualFunc(runs, wantRuns, slices.Equal[Assignment]) {
			t.Fatalf("delays %v: runs %v ending at %v, the reference gives %v ending at %v",
				delays, runs, ends, wantRuns, wantEnds)
		}
		in := model.New(4, m)
		for i := range in.P {
			for j := range in.P[i] {
				in.P[i][j] = float64((i+1)*(j+2)) / 64
			}
		}
		if mass, wantMass := MassPerJob(in, got), MassPerJobPseudo(p, in.P, in.N); !slices.Equal(mass, wantMass) {
			t.Fatalf("delays %v: per-job mass %v, the tracks hold %v", delays, mass, wantMass)
		}
	})
}

// flattenSteps is Flatten written step by step: track k becomes
// delays[k] idle steps (none when delays is nil) followed by its own
// steps; each step of the union is expanded by its congestion, each
// machine serving its jobs in track order; all-idle steps are dropped,
// and one is kept when the union spans steps but occupies none.
func flattenSteps(p *Pseudo, delays []int) []Assignment {
	var tracks [][]Assignment
	span := 0
	for k, tr := range p.Tracks {
		var steps []Assignment
		if delays != nil {
			for range delays[k] {
				steps = append(steps, NewIdle(p.M))
			}
		}
		for _, a := range tr.Steps() {
			steps = append(steps, a)
		}
		tracks = append(tracks, steps)
		span = max(span, len(steps))
	}
	var out []Assignment
	for t := range span {
		queue := make([][]int, p.M)
		for _, steps := range tracks {
			if t < len(steps) {
				for i, j := range steps[t] {
					if j != Idle {
						queue[i] = append(queue[i], j)
					}
				}
			}
		}
		for k := 0; ; k++ {
			a, busy := NewIdle(p.M), false
			for i, q := range queue {
				if k < len(q) {
					a[i], busy = q[k], true
				}
			}
			if !busy {
				break
			}
			out = append(out, a)
		}
	}
	if len(out) == 0 && span > 0 {
		out = append(out, NewIdle(p.M))
	}
	return out
}
