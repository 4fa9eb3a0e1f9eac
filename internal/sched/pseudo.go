package sched

import (
	"fmt"
	"math/rand"
	"slices"
)

// Pseudo is a pseudo-schedule (Definition 4.1): the union of its chain
// tracks. Track k schedules one precedence chain as an oblivious prefix
// on M machines (its tail is ignored), so within a track a machine
// serves at most one job per step. The union may assign one machine to
// several jobs in a step, which is what the random-delay + flattening
// conversion repairs. The pseudo-schedules and schedules derived from
// p share its tracks' runs, so they must not be modified.
type Pseudo struct {
	M      int
	Tracks []*Oblivious
}

// Len returns the number of steps of the longest track.
func (p *Pseudo) Len() int {
	max := 0
	for _, tr := range p.Tracks {
		if tr.Len() > max {
			max = tr.Len()
		}
	}
	return max
}

// Load returns the load of each machine — the total number of
// (step, job) units scheduled on it across all tracks (Definition 4.2).
func (p *Pseudo) Load() []int {
	load := make([]int, p.M)
	for _, tr := range p.Tracks {
		start := 0
		for k, a := range tr.runs {
			for i, j := range a {
				if j != Idle {
					load[i] += tr.ends[k] - start
				}
			}
			start = tr.ends[k]
		}
	}
	return load
}

// MaxLoad returns the maximum machine load (Π_max in the paper).
func (p *Pseudo) MaxLoad() int {
	max := 0
	for _, l := range p.Load() {
		if l > max {
			max = l
		}
	}
	return max
}

// MaxCongestion returns the largest number of jobs assigned to any
// single machine in any single step.
func (p *Pseudo) MaxCongestion() int {
	max := 0
	p.segments(func(_, _, cong int, _ [][]int) {
		if cong > max {
			max = cong
		}
	})
	return max
}

// segments walks the steps [0, Len) as segments [t, end) in which no
// track changes its assignment, keeping one run cursor per track. For
// each it calls yield with the jobs each machine serves there across
// the tracks, in track order, in queue[machine], and the segment's
// congestion, the longest queue. queue is reused between calls.
func (p *Pseudo) segments(yield func(t, end, cong int, queue [][]int)) {
	cur := make([]int, len(p.Tracks))
	queue := make([][]int, p.M)
	for t, length := 0, p.Len(); t < length; {
		for i := range queue {
			queue[i] = queue[i][:0]
		}
		end, cong := length, 0
		for k, tr := range p.Tracks {
			if t >= tr.Len() {
				continue
			}
			for tr.ends[cur[k]] <= t {
				cur[k]++
			}
			end = min(end, tr.ends[cur[k]])
			for i, j := range tr.runs[cur[k]] {
				if j != Idle {
					queue[i] = append(queue[i], j)
					cong = max(cong, len(queue[i]))
				}
			}
		}
		yield(t, end, cong, queue)
		t = end
	}
}

// WithDelays returns a new pseudo-schedule in which track k is shifted
// to start delays[k] steps later (the random-delay technique of
// Leighton–Maggs–Rao / Shmoys–Stein–Wein used in Section 4.1). Each
// delayed track is one idle run followed by p's track, whose runs it
// shares, so neither may be modified.
func (p *Pseudo) WithDelays(delays []int) *Pseudo {
	if len(delays) != len(p.Tracks) {
		panic("sched: delay vector length mismatch")
	}
	out := &Pseudo{M: p.M, Tracks: make([]*Oblivious, len(p.Tracks))}
	idle := []Assignment{NewIdle(p.M)}
	for k, tr := range p.Tracks {
		if delays[k] < 0 {
			panic("sched: negative delay")
		}
		out.Tracks[k] = Concat(NewObliviousRuns(p.M, idle, delays[k:k+1], nil), tr)
	}
	return out
}

// BestDelays samples `tries` delay vectors uniformly from
// [0, maxDelay] per track and returns the vector achieving the lowest
// maximum congestion, together with that congestion. This is the
// Las-Vegas substitute for the derandomized delay selection of
// [22,25]: the paper's own randomized analysis shows a uniformly
// random vector meets the O(log(n+m)/loglog(n+m)) congestion bound
// with high probability, so a handful of samples suffices; we keep the
// best seen, which can only be better. tries must be >= 1.
func (p *Pseudo) BestDelays(maxDelay, tries int, rng *rand.Rand) ([]int, int) {
	if tries < 1 {
		panic("sched: tries must be >= 1")
	}
	if maxDelay < 0 {
		panic("sched: negative maxDelay")
	}
	sum := func(xs []int) int {
		s := 0
		for _, x := range xs {
			s += x
		}
		return s
	}
	best := make([]int, len(p.Tracks))
	bestCong := p.MaxCongestion() // zero-delay candidate
	bestSum := 0
	cand := make([]int, len(p.Tracks))
	// The search evaluates `tries` candidates over the same busy
	// pattern, so precompute each track's busy cells once (as flat
	// step·M+machine offsets — a delay d shifts every offset by d·M)
	// and count into a stamped scratch buffer: no per-candidate
	// allocation or clearing, and a candidate aborts as soon as some
	// cell strictly exceeds the incumbent congestion (it can only get
	// worse, and the equal-congestion tie-break needs no exact count
	// for a loser). Results are bit-identical to the naive loop: the
	// rng draws happen before evaluation either way.
	busy := make([][]int32, len(p.Tracks))
	maxTrackLen := 0
	for k, tr := range p.Tracks {
		if tr.Len() > maxTrackLen {
			maxTrackLen = tr.Len()
		}
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
		// Only relative offsets matter for congestion, so normalize the
		// candidate by its minimum before comparing lengths.
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
						break // strictly worse than the incumbent
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

// Flatten converts the pseudo-schedule into a feasible oblivious
// prefix: each global step t with congestion c_t is expanded into c_t
// unit steps, during which every machine processes its queued jobs of
// step t one per sub-step. Ordering within a step is irrelevant to
// correctness because jobs sharing (machine, step) belong to different
// tracks, which carry no mutual precedence constraints. The result's
// length is Σ_t c_t <= MaxCongestion()·Len().
//
// It reads the tracks' runs, not their steps: a segment of steps in
// which no track changes and no machine is congested becomes one run,
// and every all-idle run shares one assignment.
func (p *Pseudo) Flatten() *Oblivious {
	out := &Oblivious{M: p.M}
	idle := NewIdle(p.M)
	p.segments(func(t, end, cong int, queue [][]int) {
		if cong == 0 {
			// An entirely idle step is preserved to keep precedence
			// windows aligned across tracks.
			out.push(idle, end-t)
			return
		}
		sub := make([]Assignment, cong)
		for k := range sub {
			sub[k] = NewIdle(p.M)
			for i, q := range queue {
				if k < len(q) {
					sub[k][i] = q[k]
				}
			}
		}
		if cong == 1 {
			out.push(sub[0], end-t)
			return
		}
		for range end - t {
			for _, a := range sub {
				out.push(a, 1)
			}
		}
	})
	out.reindex()
	return out
}

// Compact returns the oblivious prefix with all-idle steps removed.
// Removing an idle step preserves the relative order of every
// assignment, hence all precedence windows and per-job masses, and can
// only shorten the schedule. Pipelines apply it after flattening
// (delayed tracks produce idle slots where every chain is waiting).
// It drops idle runs, so its cost is O(runs), and it emits at most as
// many runs as o holds.
func (o *Oblivious) Compact() *Oblivious {
	out := &Oblivious{M: o.M, Tail: o.Tail,
		runs: make([]Assignment, 0, len(o.runs)), ends: make([]int, 0, len(o.runs))}
	start := 0
	for k, a := range o.runs {
		if slices.ContainsFunc(a, func(j int) bool { return j != Idle }) {
			out.push(a, o.ends[k]-start)
		}
		start = o.ends[k]
	}
	if len(out.runs) == 0 && len(o.runs) > 0 {
		// Keep one step so cycling prefixes stay well defined.
		out.push(o.runs[0], 1)
	}
	out.reindex()
	return out
}

// Validate checks that every track spans the M machines and passes
// (*Oblivious).Validate: every step assigns each machine a job in
// [0,n) or Idle.
func (p *Pseudo) Validate(n int) error {
	for k, tr := range p.Tracks {
		if tr.M != p.M {
			return fmt.Errorf("sched: track %d has %d machines, want %d", k, tr.M, p.M)
		}
		if err := tr.Validate(n); err != nil {
			return fmt.Errorf("sched: track %d: %w", k, err)
		}
	}
	return nil
}

// MassPerJobPseudo accumulates per-job mass across all tracks of the
// pseudo-schedule (pseudo-schedules may multi-assign machines, so this
// is the mass the flattened schedule will realize as well).
func MassPerJobPseudo(p *Pseudo, pm [][]float64, n int) []float64 {
	mass := make([]float64, n)
	for _, tr := range p.Tracks {
		for _, a := range tr.Steps() {
			for i, j := range a {
				if j != Idle {
					mass[j] += pm[i][j]
				}
			}
		}
	}
	return mass
}
