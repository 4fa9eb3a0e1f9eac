package sched

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Pseudo is a pseudo-schedule (Definition 4.1): the union of its chain
// tracks. Track k schedules one precedence chain as an oblivious prefix
// on M machines (its tail is ignored), so within a track a machine
// serves at most one job per step. The union may assign one machine to
// several jobs in a step, which Flatten repairs once BestDelays has
// chosen each track's delay. Like any Oblivious, a track shares its
// runs with the code that built it, so they must not be modified.
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
// single machine in any single step. It counts over the tracks' busy
// intervals, as BestDelays scores its candidates.
func (p *Pseudo) MaxCongestion() int {
	return p.busyIntervals().congestion(make([]int, len(p.Tracks)), math.MaxInt)
}

// busy holds each machine's busy intervals across a pseudo-schedule's
// tracks, the form in which BestDelays scores delay vectors.
type busy struct {
	// ivs[off[i]:off[i+1]] are machine i's intervals in track order:
	// one per maximal stretch of a track's consecutive runs that keep
	// i busy. A track serves at most one job per machine per step, so
	// the number of intervals that hold (t, i) is the number of jobs
	// the tracks assign to machine i at step t.
	ivs []interval
	off []int
	// starts and ends are congestion's sweep buffers.
	starts, ends []int32
}

// interval is the half-open stretch of steps [start, end) in which
// track keeps one machine busy.
type interval struct{ track, start, end int32 }

// busyIntervals lists p's busy intervals machine by machine. It reads
// each run of each track once per machine, so it costs O(M·runs).
func (p *Pseudo) busyIntervals() *busy {
	runs := 0
	for _, tr := range p.Tracks {
		runs += len(tr.runs)
	}
	b := &busy{ivs: make([]interval, 0, runs), off: make([]int, p.M+1)}
	most := 0
	for i := range p.M {
		for k, tr := range p.Tracks {
			start, open := 0, false
			for r, a := range tr.runs {
				if on := a[i] != Idle; on != open {
					if on {
						b.ivs = append(b.ivs, interval{track: int32(k), start: int32(start)})
					} else {
						b.ivs[len(b.ivs)-1].end = int32(start)
					}
					open = on
				}
				start = tr.ends[r]
			}
			if open {
				b.ivs[len(b.ivs)-1].end = int32(start)
			}
		}
		b.off[i+1] = len(b.ivs)
		most = max(most, b.off[i+1]-b.off[i])
	}
	b.starts, b.ends = make([]int32, most), make([]int32, most)
	return b
}

// congestion returns the largest number of jobs that one machine
// serves in one step once track k is delayed by delays[k] steps, or
// some number above bound as soon as one machine exceeds it. Per
// machine it sorts the delayed interval starts and ends and sweeps
// them, an end at t closing before a start at t.
func (b *busy) congestion(delays []int, bound int) int {
	c := 0
	for i := range len(b.off) - 1 {
		ivs := b.ivs[b.off[i]:b.off[i+1]]
		if len(ivs) <= c {
			continue // machine i cannot raise c
		}
		starts, ends := b.starts[:len(ivs)], b.ends[:len(ivs)]
		for x, iv := range ivs {
			d := int32(delays[iv.track])
			starts[x], ends[x] = iv.start+d, iv.end+d
		}
		slices.Sort(starts)
		slices.Sort(ends)
		closed := 0
		for x, s := range starts {
			for ends[closed] <= s {
				closed++
			}
			if x+1-closed > c {
				c = x + 1 - closed
				if c > bound {
					return c
				}
			}
		}
	}
	return c
}

// BestDelays samples `tries` delay vectors uniformly from
// [0, maxDelay] per track and returns the vector achieving the lowest
// maximum congestion, together with that congestion. This is the
// Las-Vegas substitute for the derandomized delay selection of
// [22,25]: the paper's own randomized analysis shows a uniformly
// random vector meets the O(log(n+m)/loglog(n+m)) congestion bound
// with high probability, so a handful of samples suffices; we keep the
// best seen, which can only be better. tries must be >= 1.
//
// Each candidate draws one delay per track, is shifted so its smallest
// delay is 0 (only relative offsets matter), and replaces the
// incumbent, starting from the zero vector, when its congestion is
// lower, or equal with a smaller delay sum. The search reads the
// tracks' runs, not their steps: per machine, each track's busy steps
// are a few intervals, listed once, and a candidate's congestion is
// the largest overlap of those intervals shifted by their tracks'
// delays. A candidate stops counting as soon as one machine exceeds
// the congestion it would need to win.
func (p *Pseudo) BestDelays(maxDelay, tries int, rng *rand.Rand) ([]int, int) {
	if tries < 1 {
		panic("sched: tries must be >= 1")
	}
	if maxDelay < 0 {
		panic("sched: negative maxDelay")
	}
	b := p.busyIntervals()
	best := make([]int, len(p.Tracks))
	bestCong := b.congestion(best, math.MaxInt) // zero-delay candidate
	bestSum := 0
	cand := make([]int, len(p.Tracks))
	for range tries {
		lo := maxDelay
		for k := range cand {
			cand[k] = rng.Intn(maxDelay + 1)
			lo = min(lo, cand[k])
		}
		sum := 0
		for k := range cand {
			cand[k] -= lo
			sum += cand[k]
		}
		// A candidate no shorter than the incumbent wins only with a
		// lower congestion.
		bound := bestCong
		if sum >= bestSum {
			bound--
		}
		if c := b.congestion(cand, bound); c <= bound {
			bestCong, bestSum = c, sum
			copy(best, cand)
		}
	}
	return best, bestCong
}

// Flatten converts the pseudo-schedule into a feasible oblivious
// prefix, with track k shifted to start delays[k] steps later (the
// random-delay technique of Leighton–Maggs–Rao / Shmoys–Stein–Wein
// used in Section 4.1; nil delays shift none). Each delayed step t
// with congestion c_t is expanded into c_t unit steps, during which
// every machine processes its queued jobs of step t one per sub-step,
// and each step that no track occupies is dropped. Ordering within a
// step is irrelevant to correctness because jobs sharing (machine,
// step) belong to different tracks, which carry no mutual precedence
// constraints, and dropping an unoccupied step keeps the order of
// every other, hence all precedence windows and per-job masses. When
// the delayed tracks span steps but occupy none, one idle step is
// kept so cycling prefixes stay well defined. The result's length is
// Σ_t c_t <= (the delayed congestion)·(the occupied steps).
//
// It reads the tracks' runs, not their steps: it walks the segments
// of steps in which no delayed track changes its run, keeping one run
// cursor per track, and a segment in which no machine is congested
// becomes one run. It panics when delays is non-nil and not one per
// track, or a delay is negative.
func (p *Pseudo) Flatten(delays []int) *Oblivious {
	if delays == nil {
		delays = make([]int, len(p.Tracks))
	}
	if len(delays) != len(p.Tracks) {
		panic("sched: delay vector length mismatch")
	}
	span := 0
	for k, tr := range p.Tracks {
		if delays[k] < 0 {
			panic("sched: negative delay")
		}
		span = max(span, delays[k]+tr.Len())
	}
	out := &Oblivious{M: p.M}
	cur := make([]int, len(p.Tracks))
	// queue[i] lists the jobs machine i serves in the segment, in
	// track order.
	queue := make([][]int, p.M)
	for t := 0; t < span; {
		for i := range queue {
			queue[i] = queue[i][:0]
		}
		end, cong := span, 0
		for k, tr := range p.Tracks {
			s := t - delays[k] // track k's own step
			if s < 0 {
				end = min(end, delays[k])
				continue
			}
			if s >= tr.Len() {
				continue
			}
			for tr.ends[cur[k]] <= s {
				cur[k]++
			}
			end = min(end, delays[k]+tr.ends[cur[k]])
			for i, j := range tr.runs[cur[k]] {
				if j != Idle {
					queue[i] = append(queue[i], j)
					cong = max(cong, len(queue[i]))
				}
			}
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
		switch cong {
		case 0: // no track occupies the segment: drop it
		case 1:
			out.push(sub[0], end-t)
		default:
			for range end - t {
				for _, a := range sub {
					out.push(a, 1)
				}
			}
		}
		t = end
	}
	if span > 0 && len(out.runs) == 0 {
		out.push(NewIdle(p.M), 1)
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
