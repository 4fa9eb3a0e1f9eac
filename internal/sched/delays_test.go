package sched

import (
	"math/rand"
	"slices"
	"testing"
)

// bestDelaysCells is the reference delay search: BestDelays as a count
// over busy cells. It lists every busy (step, machine) cell of every
// track as a flat step·M+machine offset, so a delay d shifts each
// offset by d·M, and counts each candidate's cells into a stamped
// buffer, stopping once a cell strictly exceeds the incumbent. The
// draws, the normalization by the minimum and the smaller-sum
// tie-break are BestDelays' own.
func bestDelaysCells(p *Pseudo, maxDelay, tries int, rng *rand.Rand) ([]int, int) {
	sum := func(xs []int) int {
		s := 0
		for _, x := range xs {
			s += x
		}
		return s
	}
	best := make([]int, len(p.Tracks))
	bestCong := cellCongestion(p, best) // zero-delay candidate
	bestSum := 0
	cand := make([]int, len(p.Tracks))
	busy := make([][]int32, len(p.Tracks))
	maxTrackLen := 0
	for k, tr := range p.Tracks {
		maxTrackLen = max(maxTrackLen, tr.Len())
		for t, a := range tr.Steps() {
			for i, j := range a {
				if j != Idle {
					busy[k] = append(busy[k], int32(t*p.M+i))
				}
			}
		}
	}
	counts := make([]int32, (maxTrackLen+maxDelay)*p.M)
	stamp := make([]int32, len(counts))
	for trial := 0; trial < tries; trial++ {
		for k := range cand {
			cand[k] = rng.Intn(maxDelay + 1)
		}
		min := cand[0]
		for _, x := range cand {
			if x < min {
				min = x
			}
		}
		for k := range cand {
			cand[k] -= min
		}
		epoch := int32(trial + 1)
		c := 0
		for k := range cand {
			shift := int32(cand[k] * p.M)
			for _, e := range busy[k] {
				idx := e + shift
				if stamp[idx] != epoch {
					stamp[idx] = epoch
					counts[idx] = 1
				} else {
					counts[idx]++
				}
				if int(counts[idx]) > c {
					c = int(counts[idx])
					if c > bestCong {
						break
					}
				}
			}
			if c > bestCong {
				break
			}
		}
		if c < bestCong || (c == bestCong && sum(cand) < bestSum) {
			bestCong = c
			bestSum = sum(cand)
			copy(best, cand)
		}
	}
	return best, bestCong
}

// cellCongestion counts every busy cell of p's tracks, track k delayed
// by delays[k], and returns the most jobs one machine serves in one
// step.
func cellCongestion(p *Pseudo, delays []int) int {
	steps := 0
	for k, tr := range p.Tracks {
		steps = max(steps, tr.Len()+delays[k])
	}
	count := make([]int, steps*p.M)
	c := 0
	for k, tr := range p.Tracks {
		for t, a := range tr.Steps() {
			for i, j := range a {
				if j != Idle {
					cell := (t+delays[k])*p.M + i
					count[cell]++
					c = max(c, count[cell])
				}
			}
		}
	}
	return c
}

// checkBestDelays holds BestDelays and MaxCongestion to the cell count
// on p: the same delay vector and congestion from the same seed, and
// the zero-delay congestion.
func checkBestDelays(t *testing.T, p *Pseudo, maxDelay, tries int, seed int64) {
	t.Helper()
	if got, want := p.MaxCongestion(), cellCongestion(p, make([]int, len(p.Tracks))); got != want {
		t.Fatalf("M %d, %d tracks: MaxCongestion %d, cell count %d", p.M, len(p.Tracks), got, want)
	}
	got, gotCong := p.BestDelays(maxDelay, tries, rand.New(rand.NewSource(seed)))
	want, wantCong := bestDelaysCells(p, maxDelay, tries, rand.New(rand.NewSource(seed)))
	if gotCong != wantCong || !slices.Equal(got, want) {
		t.Fatalf("M %d, %d tracks, maxDelay %d, %d tries, seed %d: delays %v at congestion %d, cell count %v at %d",
			p.M, len(p.Tracks), maxDelay, tries, seed, got, gotCong, want, wantCong)
	}
}

// randomPseudo draws a pseudo-schedule on 1–16 machines with 1–24
// tracks of unequal lengths. A track's runs mix all-idle stretches,
// multi-step runs and machines that pass from one job straight to
// another.
func randomPseudo(rng *rand.Rand) *Pseudo {
	m := 1 + rng.Intn(16)
	p := &Pseudo{M: m, Tracks: make([]*Oblivious, 1+rng.Intn(24))}
	for k := range p.Tracks {
		runs := make([]Assignment, rng.Intn(12))
		counts := make([]int, len(runs))
		busy := rng.Float64()
		for r := range runs {
			runs[r] = NewIdle(m)
			if rng.Intn(4) > 0 {
				for i := range runs[r] {
					if rng.Float64() < busy {
						runs[r][i] = rng.Intn(6)
					}
				}
			}
			counts[r] = 1 + rng.Intn(1+rng.Intn(8))
		}
		p.Tracks[k] = NewObliviousRuns(m, runs, counts, nil)
	}
	return p
}

// TestBestDelaysMatchesCellCount holds the interval search to the cell
// count on random pseudo-schedules, with delay ranges from 0 to past
// the longest track and 1 to 64 tries.
func TestBestDelaysMatchesCellCount(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for range 1000 {
		p := randomPseudo(rng)
		checkBestDelays(t, p, rng.Intn(p.Len()+4), 1+rng.Intn(64), rng.Int63())
	}
}
