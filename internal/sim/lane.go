package sim

import (
	"math/bits"
	"sync"
)

// The bit-parallel lane engine advances LaneWidth (64) independent
// repetitions of the compiled oblivious walk in lockstep, one per bit
// of a uint64. Per-rep state in that walk is tiny — "which jobs are
// finished" plus a clock — so completion bookkeeping becomes word
// operations: each job keeps one event per step on which some lane
// completed it, the step and the cumulative mask of lanes done, and
// no lane's completion step is stored on its own. Each (job,
// occurrence) completion trial draws all 64 lanes' Bernoulli outcomes
// at once from the raw words SplitMix64 already emits (see
// laneBernoulli). Makespans feed the chunked Welford accumulators 64
// samples at a time, in lane order.
//
// # Stream remap
//
// Lane repetitions cannot consume the per-rep (seed, rep) streams the
// scalar engines use — 64 reps share each drawn word — so the lane
// engine pins its own SeedFor-derived schedule, the "lane stream
// remap":
//
//   - Repetitions are grouped 64 at a time: group g covers reps
//     [64g, 64g+64) and draws trial words from the stream seeded
//     SeedFor(seed, "lane", g). Lane l of group g is repetition
//     64g + l.
//   - Every completion trial is keyed by its position in the
//     schedule, via Stream.ReseedTrial(groupSeed, k, 0) for occurrence
//     index k. Lane l's outcome depends only on the group seed, the
//     trial key, and bit l of the drawn words — never on which other
//     lanes are still running — so a partial tail group is exactly the
//     restriction of a full one.
//   - Repetitions that outlive the prefix continue on the generic step
//     engine with the sequential stream
//     Reseed(SeedFor(seed, "lane-tail"), rep).
//
// The scalar compiled walk doubles as the exactness oracle: run under
// the same remap (one lane at a time — see lanesOracle), it
// reproduces every lane makespan bit for bit, which is what the lane
// parity tests pin. Because group g's draws depend only on (seed, g)
// and chunk boundaries are group-aligned, lane results are
// bit-identical at any worker count, exactly like the scalar engines.
//
// Means and variances under the remap differ from the scalar
// engines' in the last Monte Carlo digits (different draws, same
// distribution); EstimateParallelInfo reports which engine ran so
// persisted results are attributable.

// LaneWidth is the number of repetitions a lane group advances in
// lockstep: one per bit of a uint64.
const LaneWidth = 64

// BitParallelAutoMinReps is the repetition floor of the lane
// dispatch: below it the per-group fixed costs (SeedFor per group, the
// makespan merge over every job's events) are not worth the lockstep
// win, and scalar results stay bit-compatible with historical runs.
const BitParallelAutoMinReps = 256

// laneMode is one call's lane decision for a compiled oblivious
// schedule. The estimators run lanesAuto; EstimateInfoLanes also
// reaches lanesOff. lanesOn and lanesOracle exist for this package's
// parity tests.
type laneMode int

const (
	// lanesAuto walks lanes at BitParallelAutoMinReps repetitions or
	// more.
	lanesAuto laneMode = iota
	// lanesOff always runs the scalar walk.
	lanesOff
	// lanesOn walks lanes at any repetition count.
	lanesOn
	// lanesOracle replays the lane walk one lane at a time on the
	// scalar walk — the exactness oracle the parity tests compare
	// against. It reports the lane engine's name, since it computes the
	// lane engine's numbers.
	lanesOracle
)

// use reports whether a call of reps repetitions walks lanes.
func (m laneMode) use(reps int) bool {
	switch m {
	case lanesAuto:
		return reps >= BitParallelAutoMinReps
	case lanesOff:
		return false
	}
	return true
}

// laneGroupSeed derives lane group g's trial-stream seed.
func laneGroupSeed(seed, g int64) int64 { return SeedFor(seed, "lane", g) }

// laneTailSeed derives the root of the per-rep tail streams.
func laneTailSeed(seed int64) int64 { return SeedFor(seed, "lane-tail") }

// laneBernoulli draws one exact Bernoulli(succ) outcome for each of
// the 64 lanes of trial (a, b), returning the success mask. Lane l's
// uniform is the infinite binary fraction whose i-th bit is bit l of
// the i-th word of the trial stream; the mask compares all 64
// uniforms against succ's exact binary expansion MSB-first, stopping
// as soon as every lane in need is decided. Bit extraction (p *= 2,
// subtract 1 on overflow) is exact in float64 — doubling never
// rounds, and Sterbenz's lemma covers the subtraction — so the
// acceptance probability is exactly succ, the same as the scalar
// engines' Float64() < succ. Expected cost is ~log2(64)+2 words for a
// full group and ~2 words for a single lane, independent of succ.
//
// Lanes outside need may be left undecided; their mask bits are
// meaningless. A decided lane's bit is the same for every need
// containing it, because the decision reads fixed positions of a
// counter-positioned stream — this is what makes the one-lane-at-a-
// time oracle replay exact.
func laneBernoulli(tr *Stream, gseed, a, b int64, succ float64, need uint64) uint64 {
	if succ >= 1 {
		return ^uint64(0)
	}
	if succ <= 0 {
		return 0
	}
	tr.ReseedTrial(gseed, a, b)
	und := ^uint64(0) // lanes whose uniform still ties succ's prefix
	var win uint64
	for und&need != 0 {
		succ *= 2
		w := tr.Uint64()
		if succ >= 1 {
			succ--
			// succ-bit 1: lanes whose uniform bit is 0 fall below succ.
			win |= und &^ w
			und &= w
			if succ == 0 {
				// succ's bits are exhausted; still-tied lanes sit at or
				// above succ and fail.
				break
			}
		} else {
			// succ-bit 0: lanes whose uniform bit is 1 exceed succ.
			und &^= w
		}
	}
	return win
}

// laneWorker is one estimation worker's lane engine: runGroup
// executes lane group g (cnt live lanes, cnt < LaneWidth only for the
// final partial group) and returns the per-lane makespans in lane
// order plus the mask of live lanes that completed. The returned slice
// is a view into the worker's buffer, valid until the next call.
//
// release hands the worker's pooled buffers back once its walk is
// over; the worker must not run again.
type laneWorker interface {
	runGroup(g int64, cnt, maxSteps int) (mk []int32, completed uint64)
	release()
}

// newLaneWorker builds the lane engine (or, in oracle mode, the
// scalar replay of it) for this estimator's compiled schedule. Callers
// guarantee est.lane.
func (e *estimator) newLaneWorker(seed int64) laneWorker {
	if e.oracle {
		return &laneOblivOracle{r: e.compiled.newRunner(), seed: seed}
	}
	return newLaneOblivRunner(e.compiled, seed)
}

// laneOblivRunner walks the compiled oblivious run tables with 64
// lanes in lockstep, step by step inside each run. The walk visits the
// same (job, occurrence) trials as the scalar compiled walk would for
// each lane under the remap: per job, lanes whose predecessors all
// completed within the prefix become active at their first occurrence
// at or after their eligibility step and trial occurrences in order
// until they complete; everything else is bookkeeping on lane masks.
type laneOblivRunner struct {
	c    *compiledOblivious
	seed int64
	// done[j] is the lane mask that completed job j within the prefix.
	done []uint64
	// events holds the current group's completions, one per (job, step
	// on which some lane completed the job), as the step and the
	// cumulative mask of lanes that completed the job at or before it.
	// Job j's are events[evLo[j]:evHi[j]], in step order, and the last
	// one's mask is done[j]; a job whose walk was skipped or won nothing
	// has none. They are the lanes' completion steps in wordwise form:
	// successor eligibility is a binary search by step, and one lane's
	// step a binary search by mask bit. The buffer is reset per group,
	// so it grows only to the most completions one group makes.
	events     []laneEvent
	evLo, evHi []int32
	// cursors is the makespan merge's heap, one entry per job.
	cursors []laneCursor
	elig    [LaneWidth]int32 // scratch: per-lane eligibility step of the current job
	mk      [LaneWidth]int32
	tr      Stream
	tail    Stream
	// tailR is a scratch scalar runner: lanes that outlive the prefix
	// continue one at a time on the generic step engine, reusing the
	// scalar engine's continueTail seeding.
	tailR *oblivRunner
}

// laneEvent is one step on which some lane completed a job: done is
// the mask of lanes that completed it at or before step.
type laneEvent struct {
	step int32
	done uint64
}

// laneCursor is one job's position in the makespan merge: events[at]
// is its latest event not yet merged, at step, and events[lo] its
// first.
type laneCursor struct {
	step, at, lo int32
}

// lanePool holds lane workers between walks, so a walk's workers
// reuse the done, events, evLo, evHi and cursors buffers of earlier
// walks. runGroup writes every entry of them it reads, so they are not
// cleared.
var lanePool = sync.Pool{New: func() any { return new(laneOblivRunner) }}

func newLaneOblivRunner(c *compiledOblivious, seed int64) *laneOblivRunner {
	r := lanePool.Get().(*laneOblivRunner)
	n := c.in.N
	*r = laneOblivRunner{
		c:       c,
		seed:    seed,
		done:    reuse(r.done, n),
		events:  r.events[:0],
		evLo:    reuse(r.evLo, n),
		evHi:    reuse(r.evHi, n),
		cursors: reuse(r.cursors, n),
	}
	return r
}

// release drops the tables and the tail runner, and puts the worker
// back in lanePool.
func (r *laneOblivRunner) release() {
	r.c, r.tailR = nil, nil
	lanePool.Put(r)
}

func (r *laneOblivRunner) runGroup(g int64, cnt, maxSteps int) ([]int32, uint64) {
	c := r.c
	in := c.in
	gseed := laneGroupSeed(r.seed, g)
	laneMask := ^uint64(0)
	if cnt < LaneWidth {
		laneMask = uint64(1)<<uint(cnt) - 1
	}
	cap := c.prefixLen
	if maxSteps < cap {
		cap = maxSteps
	}
	var unfin uint64 // lanes with at least one job unfinished after the prefix
	events := r.events[:0]
	for _, j32 := range c.topo {
		j := int(j32)
		// Lanes that may trial j at all: every predecessor done.
		eligAll := laneMask
		preds := in.Prec.Preds(j)
		for _, pr := range preds {
			eligAll &= r.done[pr]
		}
		lo, hi := int(c.offs[j]), int(c.offs[j+1])
		r.evLo[j] = int32(len(events))
		var doneJ uint64
		if eligAll != 0 && lo < hi {
			firstT, lastT := c.runs[lo].start, c.runs[hi-1].end-1
			active := eligAll
			var pend uint64
			if len(preds) > 0 {
				// Sort lanes by eligibility step wordwise: winsBefore
				// says which lanes a pred released before j's first
				// occurrence (early) and which it held to the last or
				// beyond (late) — two binary searches per pred, no
				// per-lane reads. Stragglers in between are rare (the
				// constructions replicate assignments Θ(σ) times); only
				// they pay a per-lane lookup of their completion steps
				// before waiting in pend.
				var drop uint64
				for _, pr := range preds {
					active &= r.winsBefore(int(pr), firstT)
					drop |= r.done[pr] &^ r.winsBefore(int(pr), lastT)
				}
				for m := eligAll &^ active &^ drop; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					e := int32(0)
					for _, pr := range preds {
						e = max(e, r.compStep(int(pr), l)+1)
					}
					pend |= uint64(1) << uint(l)
					r.elig[l] = e
				}
			}
		walk:
			for _, run := range c.runs[lo:hi] {
				k := int64(run.base)
				for t := run.start; t < run.end; t++ {
					if active|pend == 0 || int(t) >= cap {
						break walk
					}
					if pend != 0 {
						for m := pend; m != 0; m &= m - 1 {
							l := bits.TrailingZeros64(m)
							if r.elig[l] <= t {
								pend &^= uint64(1) << uint(l)
								active |= uint64(1) << uint(l)
							}
						}
					}
					if active != 0 {
						if win := active & laneBernoulli(&r.tr, gseed, k, 0, run.succ, active); win != 0 {
							doneJ |= win
							active &^= win
							events = append(events, laneEvent{step: t, done: doneJ})
						}
					}
					k++
				}
			}
		}
		r.events = events
		r.evHi[j] = int32(len(events))
		r.done[j] = doneJ
		unfin |= laneMask &^ doneJ
	}
	completed := laneMask &^ unfin
	if completed != 0 {
		r.placeCompleted(completed)
	}
	if unfin != 0 {
		if maxSteps <= c.prefixLen {
			for m := unfin; m != 0; m &= m - 1 {
				r.mk[bits.TrailingZeros64(m)] = int32(maxSteps)
			}
		} else {
			for m := unfin; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				mk, done := r.continueTailLane(g, l, maxSteps)
				r.mk[l] = int32(mk)
				if done {
					completed |= uint64(1) << uint(l)
				}
			}
		}
	}
	return r.mk[:cnt], completed
}

// placeCompleted writes the makespans of the completed lanes: one past
// each lane's latest completion step over all jobs. It merges the
// jobs' events downward by step on a max-heap of per-job cursors; the
// first event that adds a lane to its job's mask is that lane's
// latest completion, and the merge stops once every completed lane is
// placed.
func (r *laneOblivRunner) placeCompleted(completed uint64) {
	h := r.cursors[:0]
	for j, lo := range r.evLo {
		if at := r.evHi[j] - 1; at >= lo {
			h = append(h, laneCursor{step: r.events[at].step, at: at, lo: lo})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	left := completed
	for left != 0 && len(h) > 0 {
		top := &h[0]
		added := r.events[top.at].done
		if top.at > top.lo {
			added &^= r.events[top.at-1].done
		}
		for m := added & left; m != 0; m &= m - 1 {
			r.mk[bits.TrailingZeros64(m)] = top.step + 1
		}
		left &^= added
		if top.at > top.lo {
			top.at--
			top.step = r.events[top.at].step
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 0 {
			siftDown(h, 0)
		}
	}
	// Lanes are left over only when the instance has no jobs: they
	// finish at once.
	for m := left; m != 0; m &= m - 1 {
		r.mk[bits.TrailingZeros64(m)] = 0
	}
}

// siftDown restores the max-heap order on step below h[i].
func siftDown(h []laneCursor, i int) {
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].step > h[c].step {
			c++
		}
		if h[c].step <= x.step {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}

// winsBefore returns the mask of lanes that completed job pr strictly
// before step x: pr's done mask when all its events precede x, else
// the mask of its last event before x, found by a binary search over
// its events.
func (r *laneOblivRunner) winsBefore(pr int, x int32) uint64 {
	ev := r.events[r.evLo[pr]:r.evHi[pr]]
	if len(ev) == 0 || ev[len(ev)-1].step < x {
		return r.done[pr]
	}
	i, j := 0, len(ev)-1
	for i < j {
		m := int(uint(i+j) >> 1)
		if ev[m].step < x {
			i = m + 1
		} else {
			j = m
		}
	}
	if i == 0 {
		return 0
	}
	return ev[i-1].done
}

// compStep returns the step on which lane l completed job j, or -1 if
// it did not within the prefix: the step of j's first event whose
// mask holds the lane, found by a binary search, since the masks only
// grow.
func (r *laneOblivRunner) compStep(j, l int) int32 {
	bit := uint64(1) << uint(l)
	if r.done[j]&bit == 0 {
		return -1
	}
	ev := r.events[r.evLo[j]:r.evHi[j]]
	i, h := 0, len(ev)-1
	for i < h {
		m := int(uint(i+h) >> 1)
		if ev[m].done&bit == 0 {
			i = m + 1
		} else {
			h = m
		}
	}
	return ev[i].step
}

// continueTailLane hands lane l to the scalar continuation on the
// generic step engine: it copies the lane's completion steps into the
// scratch scalar runner and reuses its continueTail seeding, with the
// rep's pinned tail stream.
func (r *laneOblivRunner) continueTailLane(g int64, l, maxSteps int) (int, bool) {
	if r.tailR == nil {
		r.tailR = r.c.newRunner()
	}
	tr := r.tailR
	n := r.c.in.N
	unfinished := 0
	for j := 0; j < n; j++ {
		tr.comp[j] = r.compStep(j, l)
		if tr.comp[j] < 0 {
			unfinished++
		}
	}
	r.tail.Reseed(laneTailSeed(r.seed), g*LaneWidth+int64(l))
	return tr.continueTail(unfinished, maxSteps, &r.tail)
}

// laneOblivOracle replays the lane engine's numbers one lane at a
// time on the scalar compiled walk (oblivRun parameterized with
// remapDraw) — the exactness oracle for the oblivious lane walk.
type laneOblivOracle struct {
	r    *oblivRunner
	seed int64
	tr   Stream
	tail Stream
	mk   [LaneWidth]int32
}

func (o *laneOblivOracle) runGroup(g int64, cnt, maxSteps int) ([]int32, uint64) {
	gseed := laneGroupSeed(o.seed, g)
	var completed uint64
	for l := 0; l < cnt; l++ {
		o.tail.Reseed(laneTailSeed(o.seed), g*LaneWidth+int64(l))
		mk, done := oblivRun(o.r, maxSteps, remapDraw{tr: &o.tr, tail: &o.tail, gseed: gseed, lane: uint(l)})
		o.mk[l] = int32(mk)
		if done {
			completed |= uint64(1) << uint(l)
		}
	}
	return o.mk[:cnt], completed
}

func (o *laneOblivOracle) release() {}
