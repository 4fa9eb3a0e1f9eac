package sched

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"suu/internal/model"
)

// stepwise is the per-step reference for the run form: the prefix as
// one assignment per step, with every operation written the direct
// way, one step at a time.
type stepwise struct {
	m     int
	steps []Assignment
	tail  Tail
}

func (r *stepwise) at(t int) Assignment {
	if t < len(r.steps) {
		return r.steps[t]
	}
	if r.tail != nil {
		return r.tail.TailAssign(t - len(r.steps))
	}
	return r.steps[t%len(r.steps)]
}

// runEnd scans forward from t for the first step with other contents;
// past a tailed prefix every step is its own run, and a cycled prefix
// wraps.
func (r *stepwise) runEnd(t int) int {
	l := len(r.steps)
	if t >= l {
		if r.tail != nil {
			return t + 1
		}
		return t - t%l + r.runEnd(t%l)
	}
	e := t + 1
	for e < l && slices.Equal(r.steps[e], r.steps[t]) {
		e++
	}
	return e
}

func (r *stepwise) validate(n int) error {
	for t, a := range r.steps {
		if len(a) != r.m {
			return fmt.Errorf("sched: step %d has %d machines, want %d", t, len(a), r.m)
		}
		for i, j := range a {
			if j != Idle && (j < 0 || j >= n) {
				return fmt.Errorf("sched: step %d machine %d assigned to invalid job %d", t, i, j)
			}
		}
	}
	if rr, ok := r.tail.(*TopoRoundRobin); ok {
		if rr.M != r.m {
			return fmt.Errorf("sched: tail has %d machines, want %d", rr.M, r.m)
		}
		for k, j := range rr.Order {
			if j < 0 || j >= n {
				return fmt.Errorf("sched: tail position %d names invalid job %d", k, j)
			}
		}
	}
	return nil
}

func (r *stepwise) replicate(sigma int) *stepwise {
	out := &stepwise{m: r.m, tail: r.tail}
	for _, a := range r.steps {
		for k := 0; k < sigma; k++ {
			out.steps = append(out.steps, a)
		}
	}
	return out
}

func concatStepwise(parts ...*stepwise) *stepwise {
	out := &stepwise{m: parts[0].m, tail: parts[len(parts)-1].tail}
	for _, p := range parts {
		out.steps = append(out.steps, p.steps...)
	}
	return out
}

// compact is the prefix with every all-idle step dropped, or one kept
// when all are idle, and no tail: what flattening it as the one track
// of a pseudo-schedule gives.
func (r *stepwise) compact() *stepwise {
	out := &stepwise{m: r.m}
	for _, a := range r.steps {
		if slices.ContainsFunc(a, func(j int) bool { return j != Idle }) {
			out.steps = append(out.steps, a)
		}
	}
	if len(out.steps) == 0 && len(r.steps) > 0 {
		out.steps = append(out.steps, r.steps[0])
	}
	return out
}

// marshal writes the wire form by way of an expanded copy of every
// step, as encoding/json writes obliviousJSON.
func (r *stepwise) marshal() []byte {
	out := obliviousJSON{Machines: r.m}
	for _, a := range r.steps {
		out.Steps = append(out.Steps, append([]int(nil), a...))
	}
	if rr, ok := r.tail.(*TopoRoundRobin); ok {
		out.TailOrder = rr.Order
	}
	data, err := json.Marshal(out)
	if err != nil {
		panic(err)
	}
	return data
}

func (r *stepwise) gantt(maxSteps int) string {
	steps := len(r.steps)
	if maxSteps > 0 && maxSteps < steps {
		steps = maxSteps
	}
	width := 1
	for _, a := range r.steps[:steps] {
		for _, j := range a {
			if l := len(fmt.Sprint(j)); j != Idle && l > width {
				width = l
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "t=0..%d (of %d)\n", steps-1, len(r.steps))
	for i := 0; i < r.m; i++ {
		fmt.Fprintf(&b, "m%-2d |", i)
		for t := 0; t < steps; t++ {
			if j := r.steps[t][i]; j == Idle {
				fmt.Fprintf(&b, " %*s", width, ".")
			} else {
				fmt.Fprintf(&b, " %*d", width, j)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func (r *stepwise) analyze(in *model.Instance) PrefixStats {
	st := PrefixStats{
		Steps:       len(r.steps),
		Utilization: make([]float64, r.m),
		FirstStep:   make([]int, in.N),
		LastStep:    make([]int, in.N),
		Mass:        make([]float64, in.N),
	}
	for j := range st.FirstStep {
		st.FirstStep[j], st.LastStep[j] = -1, -1
	}
	for t, a := range r.steps {
		for i, j := range a {
			if j == Idle {
				continue
			}
			st.Utilization[i]++
			st.Mass[j] += in.P[i][j]
			if st.FirstStep[j] == -1 {
				st.FirstStep[j] = t
			}
			st.LastStep[j] = t
		}
	}
	if st.Steps > 0 {
		for i := range st.Utilization {
			st.Utilization[i] /= float64(st.Steps)
		}
	}
	return st
}

// randomStepwise draws a prefix that stresses the run form: it often
// repeats the previous step, as the same slice or as an equal copy in
// a backing array of its own, often plays an all-idle step, and ends
// in a nil or a round-robin tail. Jobs range over [0, n+1), so some
// schedules name a job the n-job instance lacks.
func randomStepwise(rng *rand.Rand, n, m int) *stepwise {
	r := &stepwise{m: m}
	for t := 1 + rng.Intn(12); t > 0; t-- {
		var a Assignment
		switch k := len(r.steps); {
		case k > 0 && rng.Intn(3) == 0:
			a = r.steps[k-1]
		case k > 0 && rng.Intn(3) == 0:
			a = r.steps[k-1].Clone()
		case rng.Intn(4) == 0:
			a = NewIdle(m)
		default:
			a = NewIdle(m)
			for i := range a {
				if rng.Intn(3) > 0 {
					a[i] = rng.Intn(n + 1)
				}
			}
		}
		r.steps = append(r.steps, a)
	}
	if rng.Intn(2) == 0 {
		rr := &TopoRoundRobin{M: m}
		for k := 1 + rng.Intn(n+1); k > 0; k-- {
			rr.Order = append(rr.Order, rng.Intn(n+1))
		}
		r.tail = rr
	}
	return r
}

// checkRuns compares the run form o against its per-step reference r
// on every operation that reads the prefix.
func checkRuns(t *testing.T, name string, in *model.Instance, o *Oblivious, r *stepwise) {
	t.Helper()
	l := len(r.steps)
	if o.Len() != l || o.M != r.m || o.Tail != r.tail {
		t.Fatalf("%s: Len %d M %d, want %d and %d (or the tail differs)", name, o.Len(), o.M, l, r.m)
	}
	runs, ends := o.Runs()
	for k := range runs {
		if k > 0 && (ends[k] <= ends[k-1] || slices.Equal(runs[k], runs[k-1])) {
			t.Fatalf("%s: runs %v ending at %v are not maximal", name, runs, ends)
		}
	}
	for s, a := range o.Steps() {
		if !slices.Equal(a, r.steps[s]) {
			t.Fatalf("%s: Steps yields %v at step %d, want %v", name, a, s, r.steps[s])
		}
	}
	probe := 2*l + 3
	if r.tail == nil {
		probe = 3 * l
	}
	for s := 0; s < probe; s++ {
		if got, want := o.At(s), r.at(s); !slices.Equal(got, want) {
			t.Fatalf("%s: At(%d) = %v, want %v", name, s, got, want)
		}
		if got, want := o.RunEnd(s), r.runEnd(s); got != want {
			t.Fatalf("%s: RunEnd(%d) = %d, want %d", name, s, got, want)
		}
	}
	for _, n := range []int{in.N, in.N + 1} {
		if got, want := fmt.Sprint(o.Validate(n)), fmt.Sprint(r.validate(n)); got != want {
			t.Fatalf("%s: Validate(%d) = %s, want %s", name, n, got, want)
		}
	}
	data, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	if want := r.marshal(); string(data) != string(want) {
		t.Fatalf("%s: JSON\n%s\nwant\n%s", name, data, want)
	}
	back := &Oblivious{}
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if again, _ := json.Marshal(back); string(again) != string(data) {
		t.Fatalf("%s: JSON round trip\n%s\nwant\n%s", name, again, data)
	}
	for _, k := range []int{0, 1, l / 2, l + 4} {
		if got, want := o.Gantt(k), r.gantt(k); got != want {
			t.Fatalf("%s: Gantt(%d)\n%s\nwant\n%s", name, k, got, want)
		}
	}
	if in.N > 0 && o.Validate(in.N) == nil {
		if got, want := AnalyzePrefix(in, o), r.analyze(in); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: AnalyzePrefix = %+v, want %+v", name, got, want)
		}
		if got, want := MassPerJob(in, o), r.analyze(in).Mass; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: MassPerJob = %v, want %v", name, got, want)
		}
	}
}

// TestRunFormMatchesStepwise pins the run form to the per-step
// reference on random prefixes and on what Replicate, Concat and a
// one-track Flatten derive from them. A single track has congestion
// at most 1, so flattening it compacts its prefix.
func TestRunFormMatchesStepwise(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 300; trial++ {
		n, m := 1+rng.Intn(4), 1+rng.Intn(3)
		in := model.New(n, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				in.P[i][j] = rng.Float64()
			}
		}
		refs := []*stepwise{randomStepwise(rng, n, m), randomStepwise(rng, n, m), randomStepwise(rng, n, m)}
		parts := make([]*Oblivious, len(refs))
		for k, r := range refs {
			parts[k] = NewOblivious(m, r.steps, r.tail)
			checkRuns(t, fmt.Sprintf("trial %d part %d", trial, k), in, parts[k], r)
		}
		sigma := []int{1, 2, 3, 5, 64}[rng.Intn(5)]
		checkRuns(t, fmt.Sprintf("trial %d Replicate(%d)", trial, sigma), in, parts[0].Replicate(sigma), refs[0].replicate(sigma))
		checkRuns(t, fmt.Sprintf("trial %d Concat", trial), in, Concat(parts...), concatStepwise(refs...))
		checkRuns(t, fmt.Sprintf("trial %d Concat of one", trial), in, Concat(parts[1]), concatStepwise(refs[1]))
		flatten := func(o *Oblivious) *Oblivious { return (&Pseudo{M: m, Tracks: []*Oblivious{o}}).Flatten(nil) }
		checkRuns(t, fmt.Sprintf("trial %d Flatten", trial), in, flatten(parts[2]), refs[2].compact())
		checkRuns(t, fmt.Sprintf("trial %d Flatten of a Concat", trial), in,
			flatten(Concat(parts[0], parts[1].Replicate(sigma))),
			concatStepwise(refs[0], refs[1].replicate(sigma)).compact())
	}
}

// replicateSink keeps Replicate's result on the heap, as a caller's is.
var replicateSink *Oblivious

// TestReplicateCostIndependentOfSigma: replication multiplies run
// lengths, so a 4,096-fold copy allocates what a 1-fold one does.
func TestReplicateCostIndependentOfSigma(t *testing.T) {
	core := NewOblivious(3, []Assignment{{0, 1, Idle}, {0, 1, Idle}, {2, 2, 2}, NewIdle(3), {1, 0, 2}}, nil)
	one := testing.AllocsPerRun(100, func() { replicateSink = core.Replicate(1) })
	many := testing.AllocsPerRun(100, func() { replicateSink = core.Replicate(4096) })
	if one != many {
		t.Errorf("Replicate(1) makes %v allocations, Replicate(4096) %v", one, many)
	}
	if replicateSink.Len() != 5*4096 {
		t.Errorf("Replicate(4096) has %d steps, want %d", replicateSink.Len(), 5*4096)
	}
}
