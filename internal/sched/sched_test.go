package sched

import (
	"math/rand"
	"testing"

	"suu/internal/model"
)

func twoJobInstance() *model.Instance {
	in := model.New(2, 2)
	in.P[0][0], in.P[0][1] = 0.5, 0.2
	in.P[1][0], in.P[1][1] = 0.1, 0.4
	return in
}

func TestAssignmentHelpers(t *testing.T) {
	a := NewIdle(3)
	for _, v := range a {
		if v != Idle {
			t.Fatal("NewIdle not idle")
		}
	}
	a[0] = 1
	c := a.Clone()
	c[0] = 2
	if a[0] != 1 {
		t.Error("Clone shares storage")
	}
}

func TestObliviousAtPrefixTailCycle(t *testing.T) {
	o := &Oblivious{M: 1, Steps: []Assignment{{0}, {1}}}
	if o.At(0)[0] != 0 || o.At(1)[0] != 1 {
		t.Error("prefix lookup wrong")
	}
	// nil tail cycles the prefix
	if o.At(2)[0] != 0 || o.At(5)[0] != 1 {
		t.Error("cycling lookup wrong")
	}
	o.Tail = &TopoRoundRobin{M: 1, Order: []int{7, 8}}
	if o.At(2)[0] != 7 || o.At(3)[0] != 8 || o.At(4)[0] != 7 {
		t.Error("tail lookup wrong")
	}
}

func TestObliviousValidate(t *testing.T) {
	o := &Oblivious{M: 2, Steps: []Assignment{{0, Idle}}}
	if err := o.Validate(1); err != nil {
		t.Fatal(err)
	}
	bad := &Oblivious{M: 2, Steps: []Assignment{{0, 5}}}
	if bad.Validate(1) == nil {
		t.Error("invalid job accepted")
	}
	short := &Oblivious{M: 2, Steps: []Assignment{{0}}}
	if short.Validate(1) == nil {
		t.Error("short assignment accepted")
	}
}

func TestConcatAndReplicate(t *testing.T) {
	a := &Oblivious{M: 1, Steps: []Assignment{{0}}}
	b := &Oblivious{M: 1, Steps: []Assignment{{1}}, Tail: &TopoRoundRobin{M: 1, Order: []int{0}}}
	c := Concat(a, b)
	if c.Len() != 2 || c.At(0)[0] != 0 || c.At(1)[0] != 1 {
		t.Error("concat wrong")
	}
	if c.Tail == nil {
		t.Error("concat dropped tail")
	}
	r := a.Replicate(3)
	if r.Len() != 3 || r.At(2)[0] != 0 {
		t.Error("replicate wrong")
	}
	// Several parts in one call: prefixes in order, the last part's tail.
	d := Concat(a, r, b)
	if d.Len() != 5 || d.At(0)[0] != 0 || d.At(3)[0] != 0 || d.At(4)[0] != 1 || d.Tail != b.Tail {
		t.Error("three-part concat wrong")
	}
}

// runsOf lists a prefix's runs as [start, end) pairs by walking
// RunEnd from step 0.
func runsOf(o *Oblivious) [][2]int {
	var runs [][2]int
	for t := 0; t < o.Len(); {
		end := o.RunEnd(t)
		runs = append(runs, [2]int{t, end})
		t = end
	}
	return runs
}

func TestRunEnd(t *testing.T) {
	shared := Assignment{0, 1, 2}
	cases := []struct {
		name  string
		steps []Assignment
		want  [][2]int
	}{
		{"shared arrays", []Assignment{shared, shared, shared, {1, 1, 1}, shared},
			[][2]int{{0, 3}, {3, 4}, {4, 5}}},
		{"equal contents in distinct arrays", []Assignment{{0, 1, 2}, {0, 1, 2}, shared, {0, 1, Idle}},
			[][2]int{{0, 3}, {3, 4}}},
		{"difference on the last machine only", []Assignment{{0, 1, 2}, {0, 1, 3}, {0, 1, 3}},
			[][2]int{{0, 1}, {1, 3}}},
		// One backing array, two lengths.
		{"different lengths", []Assignment{shared[:2], shared[:2], shared, {0, 1}},
			[][2]int{{0, 2}, {2, 3}, {3, 4}}},
		{"one step", []Assignment{shared}, [][2]int{{0, 1}}},
		{"empty prefix", nil, nil},
	}
	for _, c := range cases {
		o := &Oblivious{M: 3, Steps: c.steps}
		got := runsOf(o)
		if len(got) != len(c.want) {
			t.Errorf("%s: runs %v, want %v", c.name, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("%s: runs %v, want %v", c.name, got, c.want)
				break
			}
		}
		// A run may start anywhere inside another: it ends where the
		// enclosing run does.
		for _, r := range got {
			for s := r[0]; s < r[1]; s++ {
				if end := o.RunEnd(s); end != r[1] {
					t.Errorf("%s: RunEnd(%d) = %d, want %d", c.name, s, end, r[1])
				}
			}
		}
	}
}

func TestRegimenLookupAndFallback(t *testing.T) {
	r := NewRegimen(2, 1)
	r.F[Key([]bool{true, true})] = Assignment{0}
	st := &State{Unfinished: []bool{true, true}}
	if r.Assign(st)[0] != 0 {
		t.Error("regimen lookup wrong")
	}
	st2 := &State{Unfinished: []bool{false, true}}
	if r.Assign(st2)[0] != Idle {
		t.Error("missing state should idle")
	}
}

func TestMassPerJob(t *testing.T) {
	in := twoJobInstance()
	steps := []Assignment{{0, 1}, {0, Idle}}
	mass := MassPerJob(in, steps)
	if mass[0] != 1.0 || mass[1] != 0.4 {
		t.Errorf("mass=%v, want [1.0 0.4]", mass)
	}
	by := MassBySteps(in, steps)
	if by[0][0] != 0.5 || by[1][0] != 1.0 {
		t.Errorf("running mass=%v", by)
	}
}

func TestCheckMassWindows(t *testing.T) {
	in := twoJobInstance()
	in.Prec.MustEdge(0, 1)
	// Job 1 touched at step 0 while job 0 has no mass: violation.
	bad := []Assignment{{Idle, 1}, {0, Idle}}
	if CheckMassWindows(in, bad, 0.5) == nil {
		t.Error("window violation not caught")
	}
	// Job 0 reaches 0.5 at step 0 (machine 0: p=0.5); job 1 from step 1.
	good := []Assignment{{0, Idle}, {Idle, 1}, {Idle, 1}}
	if err := CheckMassWindows(in, good, 0.5); err != nil {
		t.Errorf("valid windows rejected: %v", err)
	}
	// Same-step assignment (pred reaches target at t, succ starts at t)
	// violates the strict "before" requirement.
	sameStep := []Assignment{{0, 1}, {Idle, 1}}
	if CheckMassWindows(in, sameStep, 0.5) == nil {
		t.Error("same-step start not caught")
	}
}

func TestTopoRoundRobinTail(t *testing.T) {
	rr := &TopoRoundRobin{M: 2, Order: []int{3, 1}}
	a := rr.TailAssign(0)
	if a[0] != 3 || a[1] != 3 {
		t.Error("all machines should serve order[0]")
	}
	if rr.TailAssign(3)[0] != 1 {
		t.Error("cycling wrong")
	}
}

func TestPseudoLoadCongestionDelay(t *testing.T) {
	// Two tracks each using machine 0 at step 0.
	p := &Pseudo{M: 2, Tracks: []ChainTrack{
		{Steps: []Assignment{{0, Idle}, {1, Idle}}},
		{Steps: []Assignment{{2, Idle}}},
	}}
	if p.Len() != 2 {
		t.Errorf("Len=%d", p.Len())
	}
	if l := p.Load(); l[0] != 3 || l[1] != 0 {
		t.Errorf("Load=%v", l)
	}
	if p.MaxLoad() != 3 {
		t.Error("MaxLoad wrong")
	}
	if p.MaxCongestion() != 2 {
		t.Errorf("MaxCongestion=%d, want 2", p.MaxCongestion())
	}
	d := p.WithDelays([]int{0, 1})
	if d.MaxCongestion() != 2 {
		// After delaying track 2 by 1, step1 has track1 job1 + track2 job2 on machine 0.
		t.Errorf("delayed congestion=%d, want 2", d.MaxCongestion())
	}
	d2 := p.WithDelays([]int{0, 2})
	if d2.MaxCongestion() != 1 {
		t.Errorf("delayed congestion=%d, want 1", d2.MaxCongestion())
	}
}

func TestBestDelaysFindsImprovement(t *testing.T) {
	// 4 tracks all colliding at step 0 on machine 0.
	tracks := make([]ChainTrack, 4)
	for k := range tracks {
		tracks[k] = ChainTrack{Steps: []Assignment{{0}}}
	}
	p := &Pseudo{M: 1, Tracks: tracks}
	if p.MaxCongestion() != 4 {
		t.Fatal("setup wrong")
	}
	rng := rand.New(rand.NewSource(3))
	_, cong := p.BestDelays(8, 200, rng)
	if cong > 2 {
		t.Errorf("BestDelays congestion=%d, want <=2 with 200 tries over [0,8]", cong)
	}
}

func TestFlattenProducesFeasibleSchedule(t *testing.T) {
	p := &Pseudo{M: 2, Tracks: []ChainTrack{
		{Steps: []Assignment{{0, Idle}, {1, 1}}},
		{Steps: []Assignment{{2, Idle}}},
	}}
	o := p.Flatten()
	if err := o.Validate(3); err != nil {
		t.Fatal(err)
	}
	// Step 0 congestion 2 → two sub-steps; step 1 congestion 1.
	if o.Len() != 3 {
		t.Errorf("flattened length=%d, want 3", o.Len())
	}
	// Per-machine-step single job by construction; total assignments preserved.
	count := 0
	for _, a := range o.Steps {
		for _, j := range a {
			if j != Idle {
				count++
			}
		}
	}
	if count != 4 {
		t.Errorf("flatten lost/dup assignments: %d, want 4", count)
	}
}

func TestFlattenPreservesMass(t *testing.T) {
	in := model.New(3, 2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			in.P[i][j] = 0.1 * float64(i+j+1)
		}
	}
	p := &Pseudo{M: 2, Tracks: []ChainTrack{
		{Steps: []Assignment{{0, 1}, {1, Idle}}},
		{Steps: []Assignment{{2, 2}, {Idle, 0}}},
	}}
	want := MassPerJobPseudo(p, in.P, 3)
	got := MassPerJob(in, p.Flatten().Steps)
	for j := range want {
		if diff := want[j] - got[j]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("job %d mass %v != %v", j, got[j], want[j])
		}
	}
}

func TestFlattenIdleStepPreserved(t *testing.T) {
	p := &Pseudo{M: 1, Tracks: []ChainTrack{
		{Steps: []Assignment{{Idle}, {0}}},
	}}
	o := p.Flatten()
	if o.Len() != 2 || o.Steps[0][0] != Idle || o.Steps[1][0] != 0 {
		t.Errorf("idle step not preserved: %v", o.Steps)
	}
}

func TestPseudoValidate(t *testing.T) {
	p := &Pseudo{M: 2, Tracks: []ChainTrack{{Steps: []Assignment{{0, 9}}}}}
	if p.Validate(3) == nil {
		t.Error("invalid job index accepted")
	}
	p2 := &Pseudo{M: 2, Tracks: []ChainTrack{{Steps: []Assignment{{0}}}}}
	if p2.Validate(3) == nil {
		t.Error("wrong machine count accepted")
	}
}

func TestPolicyFunc(t *testing.T) {
	pf := PolicyFunc(func(st *State) Assignment { return Assignment{st.Step} })
	if pf.Assign(&State{Step: 5})[0] != 5 {
		t.Error("PolicyFunc broken")
	}
}
