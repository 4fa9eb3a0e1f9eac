package sched

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"suu/internal/model"
)

func randomObl(rng *rand.Rand, n, m, steps int) *Oblivious {
	var prefix []Assignment
	for t := 0; t < steps; t++ {
		a := NewIdle(m)
		for i := range a {
			if rng.Intn(3) > 0 {
				a[i] = rng.Intn(n)
			}
		}
		prefix = append(prefix, a)
	}
	return NewOblivious(m, prefix, nil)
}

// Property: replication multiplies per-job mass by σ exactly.
func TestReplicateMassLinear(t *testing.T) {
	prop := func(seed int64, sRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 1+rng.Intn(5), 1+rng.Intn(4)
		in := model.New(n, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				in.P[i][j] = rng.Float64()
			}
		}
		o := randomObl(rng, n, m, 1+rng.Intn(8))
		sigma := 1 + int(sRaw)%5
		base := MassPerJob(in, o)
		repl := MassPerJob(in, o.Replicate(sigma))
		for j := range base {
			if diff := repl[j] - float64(sigma)*base[j]; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: Concat preserves per-job mass additively and At() agrees
// with the parts.
func TestConcatProperties(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 1+rng.Intn(4), 1+rng.Intn(3)
		in := model.New(n, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				in.P[i][j] = rng.Float64()
			}
		}
		a := randomObl(rng, n, m, 1+rng.Intn(5))
		b := randomObl(rng, n, m, 1+rng.Intn(5))
		c := Concat(a, b)
		if c.Len() != a.Len()+b.Len() {
			return false
		}
		ma := MassPerJob(in, a)
		mb := MassPerJob(in, b)
		mc := MassPerJob(in, c)
		for j := range mc {
			if diff := mc[j] - ma[j] - mb[j]; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		for t := 0; t < a.Len(); t++ {
			for i := 0; i < m; i++ {
				if c.At(t)[i] != a.At(t)[i] {
					return false
				}
			}
		}
		for t := 0; t < b.Len(); t++ {
			for i := 0; i < m; i++ {
				if c.At(a.Len() + t)[i] != b.At(t)[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: flattening delayed tracks keeps per-job mass, drops only
// the steps no delayed track occupies, and expands each occupied step
// by at most the delayed congestion.
func TestDelayFlattenInvariants(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 1+rng.Intn(4), 1+rng.Intn(3)
		in := model.New(n, m)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				in.P[i][j] = rng.Float64()
			}
		}
		p := &Pseudo{M: m}
		tracks := 1 + rng.Intn(4)
		for k := 0; k < tracks; k++ {
			var steps []Assignment
			for t := 0; t < 1+rng.Intn(5); t++ {
				a := NewIdle(m)
				for i := range a {
					if rng.Intn(2) == 0 {
						a[i] = rng.Intn(n)
					}
				}
				steps = append(steps, a)
			}
			p.Tracks = append(p.Tracks, NewOblivious(m, steps, nil))
		}
		delays := make([]int, tracks)
		for k := range delays {
			delays[k] = rng.Intn(6)
		}
		flat := p.Flatten(delays)
		m1 := MassPerJobPseudo(p, in.P, n)
		m3 := MassPerJob(in, flat)
		for j := range m1 {
			if diff := m1[j] - m3[j]; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		// Every (machine, job) unit of the tracks is played once.
		busy := 0
		for _, a := range flat.Steps() {
			for _, j := range a {
				if j != Idle {
					busy++
				}
			}
		}
		if busy != loadSum(p) {
			return false
		}
		// Flatten output never double-books a machine (by type). Its
		// length is at least the number of steps some delayed track
		// occupies and at most that number times the delayed
		// congestion; with no occupied step it is one idle step.
		occupied := map[int]bool{}
		for k, tr := range p.Tracks {
			for s, a := range tr.Steps() {
				if slices.ContainsFunc(a, func(j int) bool { return j != Idle }) {
					occupied[delays[k]+s] = true
				}
			}
		}
		occ := len(occupied)
		if occ == 0 {
			return flat.Len() == 1
		}
		cong := p.busyIntervals().congestion(delays, math.MaxInt)
		return flat.Len() >= occ && flat.Len() <= occ*cong
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func loadSum(p *Pseudo) int {
	s := 0
	for _, l := range p.Load() {
		s += l
	}
	return s
}

// Property: BestDelays never returns congestion worse than zero-delay.
func TestBestDelaysNeverWorse(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(3)
		p := &Pseudo{M: m}
		for k := 0; k < 1+rng.Intn(5); k++ {
			var steps []Assignment
			for t := 0; t < 1+rng.Intn(4); t++ {
				a := NewIdle(m)
				for i := range a {
					if rng.Intn(2) == 0 {
						a[i] = 0
					}
				}
				steps = append(steps, a)
			}
			p.Tracks = append(p.Tracks, NewOblivious(m, steps, nil))
		}
		zero := p.MaxCongestion()
		_, cong := p.BestDelays(4, 16, rng)
		return cong <= zero
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
