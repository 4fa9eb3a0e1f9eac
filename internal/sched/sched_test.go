package sched

import (
	"math"
	"math/rand"
	"slices"
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
	o := NewOblivious(1, []Assignment{{0}, {1}}, nil)
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
	o := NewOblivious(2, []Assignment{{0, Idle}}, nil)
	if err := o.Validate(1); err != nil {
		t.Fatal(err)
	}
	bad := NewOblivious(2, []Assignment{{0, 5}}, nil)
	if bad.Validate(1) == nil {
		t.Error("invalid job accepted")
	}
	short := NewOblivious(2, []Assignment{{0}}, nil)
	if short.Validate(1) == nil {
		t.Error("short assignment accepted")
	}
}

func TestConcatAndReplicate(t *testing.T) {
	a := NewOblivious(1, []Assignment{{0}}, nil)
	b := NewOblivious(1, []Assignment{{1}}, &TopoRoundRobin{M: 1, Order: []int{0}})
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
		o := NewOblivious(3, c.steps, nil)
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
	steps := NewOblivious(2, []Assignment{{0, 1}, {0, Idle}}, nil)
	mass := MassPerJob(in, steps)
	if mass[0] != 1.0 || mass[1] != 0.4 {
		t.Errorf("mass=%v, want [1.0 0.4]", mass)
	}
}

func TestCheckMassWindows(t *testing.T) {
	in := twoJobInstance()
	in.Prec.MustEdge(0, 1)
	// Job 1 touched at step 0 while job 0 has no mass: violation.
	bad := NewOblivious(2, []Assignment{{Idle, 1}, {0, Idle}}, nil)
	if CheckMassWindows(in, bad, 0.5) == nil {
		t.Error("window violation not caught")
	}
	// Job 0 reaches 0.5 at step 0 (machine 0: p=0.5); job 1 from step 1.
	good := NewOblivious(2, []Assignment{{0, Idle}, {Idle, 1}, {Idle, 1}}, nil)
	if err := CheckMassWindows(in, good, 0.5); err != nil {
		t.Errorf("valid windows rejected: %v", err)
	}
	// Same-step assignment (pred reaches target at t, succ starts at t)
	// violates the strict "before" requirement.
	sameStep := NewOblivious(2, []Assignment{{0, 1}, {Idle, 1}}, nil)
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
	p := &Pseudo{M: 2, Tracks: []*Oblivious{
		NewOblivious(2, []Assignment{{0, Idle}, {1, Idle}}, nil),
		NewOblivious(2, []Assignment{{2, Idle}}, nil),
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
	b := p.busyIntervals()
	if c := b.congestion([]int{0, 1}, math.MaxInt); c != 2 {
		// After delaying track 2 by 1, step1 has track1 job1 + track2 job2 on machine 0.
		t.Errorf("delayed congestion=%d, want 2", c)
	}
	if c := b.congestion([]int{0, 2}, math.MaxInt); c != 1 {
		t.Errorf("delayed congestion=%d, want 1", c)
	}
}

func TestBestDelaysFindsImprovement(t *testing.T) {
	// 4 tracks all colliding at step 0 on machine 0.
	tracks := make([]*Oblivious, 4)
	for k := range tracks {
		tracks[k] = NewOblivious(1, []Assignment{{0}}, nil)
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
	p := &Pseudo{M: 2, Tracks: []*Oblivious{
		NewOblivious(2, []Assignment{{0, Idle}, {1, 1}}, nil),
		NewOblivious(2, []Assignment{{2, Idle}}, nil),
	}}
	o := p.Flatten(nil)
	if err := o.Validate(3); err != nil {
		t.Fatal(err)
	}
	// Step 0 congestion 2 → two sub-steps; step 1 congestion 1.
	if o.Len() != 3 {
		t.Errorf("flattened length=%d, want 3", o.Len())
	}
	// Per-machine-step single job by construction; total assignments preserved.
	count := 0
	for _, a := range o.Steps() {
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
	p := &Pseudo{M: 2, Tracks: []*Oblivious{
		NewOblivious(2, []Assignment{{0, 1}, {1, Idle}}, nil),
		NewOblivious(2, []Assignment{{2, 2}, {Idle, 0}}, nil),
	}}
	want := MassPerJobPseudo(p, in.P, 3)
	got := MassPerJob(in, p.Flatten(nil))
	for j := range want {
		if diff := want[j] - got[j]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("job %d mass %v != %v", j, got[j], want[j])
		}
	}
}

// TestFlattenIdleStepDropped: a step that no track occupies is
// dropped, so the track's one occupied step comes first.
func TestFlattenIdleStepDropped(t *testing.T) {
	p := &Pseudo{M: 1, Tracks: []*Oblivious{
		NewOblivious(1, []Assignment{{Idle}, {0}}, nil),
	}}
	o := p.Flatten(nil)
	if o.Len() != 1 || o.At(0)[0] != 0 {
		t.Errorf("idle step not dropped:\n%s", o.Gantt(0))
	}
}

// TestFlattenDropsUnoccupiedStepsOnly: flattening drops the steps no
// delayed track occupies, whether a track plays them idle or a delay
// opens them, and keeps every other step in order, so per-job mass
// and every precedence window hold.
func TestFlattenDropsUnoccupiedStepsOnly(t *testing.T) {
	in := model.New(2, 2)
	in.P[0][0], in.P[1][1] = 0.5, 0.5
	in.Prec.MustEdge(0, 1)
	idle := &Pseudo{M: 2, Tracks: []*Oblivious{NewOblivious(2, []Assignment{
		{Idle, Idle},
		{0, Idle},
		{Idle, Idle},
		{Idle, 1},
	}, nil)}}
	delayed := &Pseudo{M: 2, Tracks: []*Oblivious{
		NewOblivious(2, []Assignment{{0, Idle}}, nil),
		NewOblivious(2, []Assignment{{Idle, 1}}, nil),
	}}
	for _, c := range []struct {
		name   string
		p      *Pseudo
		delays []int
	}{{"idle steps", idle, nil}, {"delays", delayed, []int{1, 3}}} {
		o := c.p.Flatten(c.delays)
		want := []Assignment{{0, Idle}, {Idle, 1}}
		if o.Len() != len(want) {
			t.Fatalf("%s: len=%d, want %d:\n%s", c.name, o.Len(), len(want), o.Gantt(0))
		}
		for s, a := range o.Steps() {
			if !slices.Equal(a, want[s]) {
				t.Errorf("%s: step %d is %v, want %v", c.name, s, a, want[s])
			}
		}
		if m1, m2 := MassPerJobPseudo(c.p, in.P, in.N), MassPerJob(in, o); !slices.Equal(m1, m2) {
			t.Errorf("%s: mass %v, the tracks hold %v", c.name, m2, m1)
		}
		// Job 0's mass still reaches 1/2 before job 1's first step.
		if err := CheckMassWindows(in, o, 0.5); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

// TestFlattenAllIdleKeepsOneStep: delayed tracks that span steps but
// occupy none flatten to one idle step, so the prefix can cycle; a
// pseudo-schedule that spans no step stays empty.
func TestFlattenAllIdleKeepsOneStep(t *testing.T) {
	idle := &Pseudo{M: 1, Tracks: []*Oblivious{NewOblivious(1, []Assignment{{Idle}, {Idle}}, nil)}}
	empty := &Pseudo{M: 1, Tracks: []*Oblivious{{M: 1}, {M: 1}}}
	for _, c := range []struct {
		p      *Pseudo
		delays []int
		want   int
	}{
		{idle, nil, 1},
		{idle, []int{4}, 1},
		{empty, []int{0, 3}, 1},
		{empty, nil, 0},
		{&Pseudo{M: 1}, nil, 0},
	} {
		o := c.p.Flatten(c.delays)
		if o.Len() != c.want {
			t.Errorf("%d tracks delayed by %v: len=%d, want %d", len(c.p.Tracks), c.delays, o.Len(), c.want)
		}
		for _, a := range o.Steps() {
			if a[0] != Idle {
				t.Errorf("%d tracks delayed by %v play %v", len(c.p.Tracks), c.delays, a)
			}
		}
	}
}

// TestFlattenRejectsBadDelays: a delay vector must hold one
// non-negative delay per track.
func TestFlattenRejectsBadDelays(t *testing.T) {
	p := &Pseudo{M: 1, Tracks: []*Oblivious{NewOblivious(1, []Assignment{{0}}, nil)}}
	for _, delays := range [][]int{{}, {0, 0}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("delays %v accepted", delays)
				}
			}()
			p.Flatten(delays)
		}()
	}
}

func TestPseudoValidate(t *testing.T) {
	p := &Pseudo{M: 2, Tracks: []*Oblivious{NewOblivious(2, []Assignment{{0, 9}}, nil)}}
	if p.Validate(3) == nil {
		t.Error("invalid job index accepted")
	}
	p2 := &Pseudo{M: 2, Tracks: []*Oblivious{NewOblivious(2, []Assignment{{0}}, nil)}}
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
