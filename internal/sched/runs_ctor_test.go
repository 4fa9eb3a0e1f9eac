package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"suu/internal/model"
)

// TestNewObliviousRunsMatchesSteps builds random prefixes from runs,
// with equal neighbours and runs of no steps among them, and pins each
// to NewOblivious over the same steps one at a time: the same runs,
// the same first array kept per run, and the per-step reference.
func TestNewObliviousRunsMatchesSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 300; trial++ {
		n, m := 1+rng.Intn(4), 1+rng.Intn(3)
		in := model.New(n, m)
		base := randomStepwise(rng, n, m)
		var runs []Assignment
		var counts []int
		ref := &stepwise{m: m, tail: base.tail}
		for _, a := range base.steps {
			c := rng.Intn(4)
			runs, counts = append(runs, a), append(counts, c)
			for range c {
				ref.steps = append(ref.steps, a)
			}
		}
		if len(ref.steps) == 0 {
			runs, counts = append(runs, base.steps[0]), append(counts, 1)
			ref.steps = append(ref.steps, base.steps[0])
		}
		name := fmt.Sprintf("trial %d", trial)
		got := NewObliviousRuns(m, runs, counts, ref.tail)
		checkRuns(t, name, in, got, ref)
		want := NewOblivious(m, ref.steps, ref.tail)
		gotRuns, gotEnds := got.Runs()
		wantRuns, wantEnds := want.Runs()
		if !slices.Equal(gotEnds, wantEnds) {
			t.Fatalf("%s: ends %v, NewOblivious gave %v", name, gotEnds, wantEnds)
		}
		for k := range gotRuns {
			if &gotRuns[k][0] != &wantRuns[k][0] {
				t.Fatalf("%s: run %d keeps another array than NewOblivious does", name, k)
			}
		}
	}
	for _, c := range []struct {
		name   string
		counts []int
	}{{"length mismatch", []int{1}}, {"negative count", []int{1, -1}}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", c.name)
				}
			}()
			NewObliviousRuns(1, []Assignment{{0}, {Idle}}, c.counts, nil)
		}()
	}
}
