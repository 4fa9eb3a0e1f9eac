package core

import (
	"math/rand"
	"slices"
	"testing"

	"suu/internal/model"
	"suu/internal/sched"
)

// buildPseudoPerStep is BuildPseudo with a fresh idle assignment per
// track step.
func buildPseudoPerStep(in *model.Instance, chains [][]int, x [][]int) *sched.Pseudo {
	p := &sched.Pseudo{M: in.M}
	for _, chain := range chains {
		total := 0
		winLen := make([]int, len(chain))
		for k, j := range chain {
			for i := 0; i < in.M; i++ {
				winLen[k] = max(winLen[k], x[i][j])
			}
			total += winLen[k]
		}
		steps := make([]sched.Assignment, total)
		for s := range steps {
			steps[s] = sched.NewIdle(in.M)
		}
		offset := 0
		for k, j := range chain {
			for i := 0; i < in.M; i++ {
				for s := 0; s < x[i][j]; s++ {
					steps[offset+s][i] = j
				}
			}
			offset += winLen[k]
		}
		p.Tracks = append(p.Tracks, sched.NewOblivious(in.M, steps, nil))
	}
	return p
}

// withDelaysCloned shifts track k of p by delays[k] steps, each a
// fresh idle assignment, and clones every track step.
func withDelaysCloned(p *sched.Pseudo, delays []int) *sched.Pseudo {
	out := &sched.Pseudo{M: p.M, Tracks: make([]*sched.Oblivious, len(p.Tracks))}
	for k, tr := range p.Tracks {
		steps := make([]sched.Assignment, delays[k]+tr.Len())
		for t := 0; t < delays[k]; t++ {
			steps[t] = sched.NewIdle(p.M)
		}
		for t, a := range tr.Steps() {
			steps[delays[k]+t] = a.Clone()
		}
		out.Tracks[k] = sched.NewOblivious(p.M, steps, nil)
	}
	return out
}

// flattenPerStep is Flatten of p's tracks, undelayed, step by step:
// it expands each step by its congestion, drops every all-idle step,
// and keeps one fresh idle step when p spans steps but occupies none.
func flattenPerStep(p *sched.Pseudo) *sched.Oblivious {
	var steps []sched.Assignment
	queue := make([][]int, p.M)
	for t := 0; t < p.Len(); t++ {
		for i := range queue {
			queue[i] = queue[i][:0]
		}
		cong := 0
		for _, tr := range p.Tracks {
			if t >= tr.Len() {
				continue
			}
			for i, j := range tr.At(t) {
				if j != sched.Idle {
					queue[i] = append(queue[i], j)
					cong = max(cong, len(queue[i]))
				}
			}
		}
		for k := 0; k < cong; k++ {
			a := sched.NewIdle(p.M)
			for i := range queue {
				if k < len(queue[i]) {
					a[i] = queue[i][k]
				}
			}
			steps = append(steps, a)
		}
	}
	if len(steps) == 0 && p.Len() > 0 {
		steps = append(steps, sched.NewIdle(p.M))
	}
	return sched.NewOblivious(p.M, steps, nil)
}

// snapshot deep-copies a pseudo-schedule's steps.
func snapshot(p *sched.Pseudo) [][]sched.Assignment {
	out := make([][]sched.Assignment, len(p.Tracks))
	for k, tr := range p.Tracks {
		for _, a := range tr.Steps() {
			out[k] = append(out[k], a.Clone())
		}
	}
	return out
}

// sameTracks compares two snapshots step by step.
func sameTracks(a, b [][]sched.Assignment) bool {
	return slices.EqualFunc(a, b, func(x, y []sched.Assignment) bool {
		return slices.EqualFunc(x, y, slices.Equal)
	})
}

// TestSharedStepsMatchPerStepPipeline pins the chain pipeline's run
// forms (one backing array per track, and Flatten reading the tracks'
// runs, each shifted by its delay) to the per-step forms they
// replaced: over random chain sets, counts and delay vectors, the
// flattened schedule has the same runs as the per-step tracks, delayed
// by idle steps, flattened and compacted, and the pseudo-schedule is
// left as it was built.
func TestSharedStepsMatchPerStepPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		n, m := 1+rng.Intn(14), 1+rng.Intn(5)
		in := model.New(n, m)
		perm := rng.Perm(n)
		var chains [][]int
		for len(perm) > 0 {
			k := 1 + rng.Intn(len(perm))
			chains = append(chains, perm[:k])
			perm = perm[k:]
		}
		x := make([][]int, m)
		for i := range x {
			x[i] = make([]int, n)
			for j := range x[i] {
				if rng.Intn(3) > 0 {
					x[i][j] = rng.Intn(4)
				}
			}
		}
		p := BuildPseudo(in, chains, x)
		old := buildPseudoPerStep(in, chains, x)
		if !sameTracks(snapshot(p), snapshot(old)) {
			t.Fatalf("trial %d: BuildPseudo's tracks differ from the per-step layout", trial)
		}
		before := snapshot(p)
		delays := make([]int, len(chains))
		for k := range delays {
			if rng.Intn(4) > 0 {
				delays[k] = rng.Intn(p.MaxLoad() + 2)
			}
		}
		for _, d := range [][]int{delays, make([]int, len(chains))} {
			got := p.Flatten(d)
			want := flattenPerStep(withDelaysCloned(old, d))
			gotRuns, gotEnds := got.Runs()
			wantRuns, wantEnds := want.Runs()
			if got.M != want.M || !slices.Equal(gotEnds, wantEnds) || !slices.EqualFunc(gotRuns, wantRuns, slices.Equal) {
				t.Fatalf("trial %d delays %v: runs %v ends %v, per-step pipeline gave %v %v",
					trial, d, gotRuns, gotEnds, wantRuns, wantEnds)
			}
		}
		if !sameTracks(snapshot(p), before) {
			t.Fatalf("trial %d: the pipeline modified the pseudo-schedule it read", trial)
		}
	}
}
