package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"suu/internal/model"
	"suu/internal/sched"
)

// refSortedPairs is the sort-per-call pair order: the active jobs'
// positive pairs, sorted on every call by p descending, then machine,
// then job. It is the reference the shared PairOrder scan must
// reproduce.
func refSortedPairs(in *model.Instance, active []bool) []pairPJ {
	var ps []pairPJ
	for i := 0; i < in.M; i++ {
		for j := 0; j < in.N; j++ {
			if active[j] && in.P[i][j] > 0 {
				ps = append(ps, pairPJ{i, j, in.P[i][j]})
			}
		}
	}
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].p != ps[b].p {
			return ps[a].p > ps[b].p
		}
		if ps[a].i != ps[b].i {
			return ps[a].i < ps[b].i
		}
		return ps[a].j < ps[b].j
	})
	return ps
}

// refMSM is MSM-ALG over refSortedPairs, scanning every pair.
func refMSM(in *model.Instance, active, up []bool) sched.Assignment {
	f := sched.NewIdle(in.M)
	mass := make([]float64, in.N)
	for _, pr := range refSortedPairs(in, active) {
		if (up != nil && !up[pr.i]) || f[pr.i] != sched.Idle {
			continue
		}
		if mass[pr.j]+pr.p <= 1+1e-12 {
			f[pr.i] = pr.j
			mass[pr.j] += pr.p
		}
	}
	return f
}

// refMSMExt is MSM-E-ALG over refSortedPairs, scanning every pair.
func refMSMExt(in *model.Instance, active []bool, t int) [][]int {
	x := make([][]int, in.M)
	for i := range x {
		x[i] = make([]int, in.N)
	}
	ti := make([]int, in.M)
	for i := range ti {
		ti[i] = t
	}
	mass := make([]float64, in.N)
	for _, pr := range refSortedPairs(in, active) {
		if ti[pr.i] == 0 {
			continue
		}
		budget := int(math.Floor((1 - mass[pr.j]) / pr.p))
		if budget <= 0 {
			continue
		}
		take := budget
		if ti[pr.i] < take {
			take = ti[pr.i]
		}
		x[pr.i][pr.j] = take
		ti[pr.i] -= take
		mass[pr.j] += float64(take) * pr.p
	}
	return x
}

// tieLevels are probabilities that collide often, sum to exactly 1 in
// small combinations (1/3+1/3+1/3 up to rounding, 0.5+0.5, 0.25×4),
// and include zero and certain (p = 1) pairs.
var tieLevels = []float64{0, 0.1, 0.25, 1.0 / 3, 0.5, 1}

func randomMask(rng *rand.Rand, k int) []bool {
	mask := make([]bool, k)
	switch rng.Intn(4) {
	case 0: // all set
		for i := range mask {
			mask[i] = true
		}
	case 1: // none set
	default:
		for i := range mask {
			mask[i] = rng.Intn(3) != 0
		}
	}
	return mask
}

// TestPairOrderMatchesSortPerCall: on random instances — half of them
// drawn from tieLevels — and random active and up masks, MSMAlg,
// MSMAlgMasked, MSMExt and the shared order's MSM, MSMInto (with dirty
// reused buffers) and ext all equal the sort-per-call reference.
func TestPairOrderMatchesSortPerCall(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		n, m := 1+rng.Intn(9), 1+rng.Intn(6)
		in := model.New(n, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if trial%2 == 0 {
					in.P[i][j] = tieLevels[rng.Intn(len(tieLevels))]
				} else if rng.Intn(4) != 0 {
					in.P[i][j] = rng.Float64()
				}
			}
		}
		order := NewPairOrder(in)
		f := make(sched.Assignment, m)
		mass := make([]float64, n)
		for k := 0; k < 10; k++ {
			active := randomMask(rng, n)
			var up []bool
			if rng.Intn(3) != 0 {
				up = randomMask(rng, m)
			}
			want := refMSM(in, active, up)
			got := map[string]sched.Assignment{
				"MSMAlgMasked": MSMAlgMasked(in, active, up),
				"order.MSM":    order.MSM(active, up),
				"order.MSMInto": append(sched.Assignment(nil),
					order.MSMInto(f, mass, active, up)...),
			}
			if up == nil {
				got["MSMAlg"] = MSMAlg(in, active)
			}
			for name, g := range got {
				if !reflect.DeepEqual(g, want) {
					t.Fatalf("trial %d: %s = %v, reference %v (p=%v active=%v up=%v)",
						trial, name, g, want, in.P, active, up)
				}
			}
			for _, tt := range []int{0, 1, 2, 3, 7, 40} {
				wantX := refMSMExt(in, active, tt)
				if x := MSMExt(in, active, tt); !reflect.DeepEqual(x, wantX) {
					t.Fatalf("trial %d t=%d: MSMExt = %v, reference %v", trial, tt, x, wantX)
				}
				if x := order.ext(active, tt); !reflect.DeepEqual(x, wantX) {
					t.Fatalf("trial %d t=%d: order.ext = %v, reference %v", trial, tt, x, wantX)
				}
			}
		}
	}
}

// TestAdaptivePolicyConcurrentFirstAssign: estimation workers share
// one policy, so the lazily built order must be safe to build from
// concurrent first calls (run under -race) and give MSMAlg's answer.
func TestAdaptivePolicyConcurrentFirstAssign(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	in := randomInstance(9, 4, rng)
	pol := &AdaptivePolicy{In: in}
	frozen := &FrozenLearningPolicy{Est: in}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for k := 0; k < 50; k++ {
				elig := randomMask(r, in.N)
				st := &sched.State{Unfinished: elig, Eligible: elig}
				want := MSMAlg(in, elig)
				if got := pol.Assign(st); !reflect.DeepEqual(got, want) {
					t.Errorf("adaptive %v, MSMAlg %v", got, want)
				}
				if got := frozen.Assign(st); !reflect.DeepEqual(got, want) {
					t.Errorf("frozen %v, MSMAlg %v", got, want)
				}
			}
		}(g)
	}
	wg.Wait()
}
