package sim

import "math/bits"

// The bit-parallel lane engine advances LaneWidth (64) independent
// repetitions of the compiled oblivious walk in lockstep, one per bit
// of a uint64. Per-rep state in that walk is tiny — "which jobs are
// finished" plus a clock — so completion bookkeeping becomes
// AND/OR/popcount-style word operations, and each (job, occurrence)
// completion trial draws all 64 lanes' Bernoulli outcomes at once from
// the raw words SplitMix64 already emits (see laneBernoulli).
// Makespans feed the chunked Welford accumulators 64 samples at a
// time, in lane order.
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
// distribution); EstimateInfo reports which engine ran so persisted
// results are attributable.

// LaneWidth is the number of repetitions a lane group advances in
// lockstep: one per bit of a uint64.
const LaneWidth = 64

// BitParallelAutoMinReps is the repetition floor of the lane
// dispatch: below it the per-group fixed costs (SeedFor per group,
// per-lane eligibility scatter) are not worth the lockstep win, and
// scalar results stay bit-compatible with historical runs.
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
// order plus the completed-lane mask. The returned slice is a view
// into the worker's buffer, valid until the next call.
//
// massLanes enables per-lane mass tracking and returns the buffer the
// subsequent runGroup calls fill: lane l's per-job masses are
// mass[l*n : (l+1)*n], valid until the next call. Tracking is off by
// default — Estimate never pays for it — and is what lets
// MassWithinHorizon run on the lane engine. Per lane, masses accrue
// in the same order as the scalar walk under the remap, so the lane
// engine and the one-lane-at-a-time oracle stay bit-identical.
type laneWorker interface {
	runGroup(g int64, cnt, maxSteps int) (mk []int32, completed uint64)
	massLanes() []float64
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

// laneOblivRunner walks the compiled oblivious occurrence lists with
// 64 lanes in lockstep. The walk visits the same (job, occurrence)
// trials as the scalar compiled walk would for each lane under the
// remap: per job, lanes whose predecessors all completed within the
// prefix become active at their first occurrence at or after their
// eligibility step and trial occurrences in order until they
// complete; everything else is bookkeeping on lane masks.
type laneOblivRunner struct {
	c    *compiledOblivious
	seed int64
	// comp[j*LaneWidth+l] is lane l's completion step of job j, -1
	// while unfinished. done[j] is the lane mask that completed j
	// within the prefix.
	comp []int32
	done []uint64
	// wins holds the current group's win masks in walk order: job j's
	// walk visited its occurrences offs[j], offs[j]+1, ..., and
	// wins[wlo[j]+i] is the cumulative mask of lanes that completed j
	// at or before occurrence offs[j]+i; j's segment ends at whi[j], and
	// a job whose walk was skipped has an empty one. These are per-lane
	// completion steps in wordwise form, which is what lets successor
	// eligibility stay mask arithmetic plus a binary search. The buffer
	// is reset per group, so it grows only to the most occurrences one
	// group visits, not to the compiled table.
	wins     []uint64
	wlo, whi []int32
	elig     [LaneWidth]int32 // scratch: per-lane eligibility step of the current job
	mcmp     [LaneWidth]int32 // per-lane max completion step
	mk       [LaneWidth]int32
	tr       Stream
	tail     Stream
	// tailR is a scratch scalar runner: lanes that outlive the prefix
	// continue one at a time on the generic step engine, reusing the
	// scalar engine's continueTail seeding.
	tailR *oblivRunner
	// massB is the per-lane mass buffer (massB[l*n+j]), nil until
	// massLanes enables tracking.
	massB []float64
}

func newLaneOblivRunner(c *compiledOblivious, seed int64) *laneOblivRunner {
	return &laneOblivRunner{
		c:    c,
		seed: seed,
		comp: make([]int32, c.in.N*LaneWidth),
		done: make([]uint64, c.in.N),
		wlo:  make([]int32, c.in.N),
		whi:  make([]int32, c.in.N),
	}
}

// laneNegOnes is the memmove template resetting a job's completion
// column to "unfinished".
var laneNegOnes = func() (a [LaneWidth]int32) {
	for i := range a {
		a[i] = -1
	}
	return
}()

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
	for l := range r.mcmp {
		r.mcmp[l] = -1
	}
	if r.massB != nil {
		clear(r.massB[:cnt*in.N])
	}
	r.wins = r.wins[:0]
	for _, j32 := range c.topo {
		j := int(j32)
		comp := r.comp[j*LaneWidth : (j+1)*LaneWidth]
		copy(comp, laneNegOnes[:])
		// Lanes that may trial j at all: every predecessor done.
		eligAll := laneMask
		preds := in.Prec.Preds(j)
		for _, pr := range preds {
			eligAll &= r.done[pr]
		}
		lo, hi := int(c.offs[j]), int(c.offs[j+1])
		r.wlo[j] = int32(len(r.wins))
		var doneJ uint64
		if eligAll != 0 && lo < hi {
			firstT, lastT := c.steps[lo], c.steps[hi-1]
			active := eligAll
			var pend uint64
			if len(preds) > 0 {
				// Sort lanes by eligibility step wordwise: winsBefore
				// says which lanes a pred released before j's first
				// occurrence (early) and which it held to the last or
				// beyond (late) — two binary searches per pred, no
				// per-lane reads. Stragglers in between are rare (the
				// constructions replicate assignments Θ(σ) times); only
				// they pay a per-lane eligibility computation before
				// waiting in pend.
				var drop uint64
				for _, pr := range preds {
					active &= r.winsBefore(int(pr), firstT)
					drop |= r.done[pr] &^ r.winsBefore(int(pr), lastT)
				}
				for m := eligAll &^ active &^ drop; m != 0; m &= m - 1 {
					l := bits.TrailingZeros64(m)
					e := int32(0)
					for _, pr := range preds {
						if pc := r.comp[pr*LaneWidth+l] + 1; pc > e {
							e = pc
						}
					}
					pend |= uint64(1) << uint(l)
					r.elig[l] = e
				}
			}
			for k := lo; k < hi && active|pend != 0; k++ {
				t := c.steps[k]
				if int(t) >= cap {
					break
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
					if r.massB != nil {
						for m := active; m != 0; m &= m - 1 {
							l := bits.TrailingZeros64(m)
							r.massB[l*in.N+j] += c.mass[k]
						}
					}
					win := active & laneBernoulli(&r.tr, gseed, int64(k), 0, c.succ[k], active)
					if win != 0 {
						doneJ |= win
						active &^= win
						for m := win; m != 0; m &= m - 1 {
							l := bits.TrailingZeros64(m)
							comp[l] = t
							if t > r.mcmp[l] {
								r.mcmp[l] = t
							}
						}
					}
				}
				r.wins = append(r.wins, doneJ)
			}
		}
		r.whi[j] = int32(len(r.wins))
		r.done[j] = doneJ
		unfin |= laneMask &^ doneJ
	}
	completed := laneMask &^ unfin
	for m := completed; m != 0; m &= m - 1 {
		l := bits.TrailingZeros64(m)
		r.mk[l] = r.mcmp[l] + 1
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

// winsBefore returns the mask of lanes that completed job pr strictly
// before step x, by binary search over the (sorted) steps of the
// occurrences pr's walk visited into its segment of win masks.
// Occurrences past the segment were never visited and hold no wins;
// the cumulative mask at the segment's end already equals pr's full
// done mask.
func (r *laneOblivRunner) winsBefore(pr int, x int32) uint64 {
	lo := int(r.c.offs[pr])
	steps := r.c.steps[lo : lo+int(r.whi[pr]-r.wlo[pr])]
	i, j := 0, len(steps)
	for i < j {
		m := int(uint(i+j) >> 1)
		if steps[m] < x {
			i = m + 1
		} else {
			j = m
		}
	}
	if i == 0 {
		return 0
	}
	return r.wins[int(r.wlo[pr])+i-1]
}

// continueTailLane hands lane l to the scalar continuation on the
// generic step engine: it copies the lane's completion column — and, when mass tracking is on, its accumulated prefix mass
// — into the scratch scalar runner and reuses its continueTail
// seeding, with the rep's pinned tail stream.
func (r *laneOblivRunner) continueTailLane(g int64, l, maxSteps int) (int, bool) {
	if r.tailR == nil {
		r.tailR = r.c.newRunner()
	}
	tr := r.tailR
	n := r.c.in.N
	unfinished := 0
	for j := 0; j < n; j++ {
		tr.comp[j] = r.comp[j*LaneWidth+l]
		if r.massB != nil {
			tr.mass[j] = r.massB[l*n+j]
		} else {
			tr.mass[j] = 0
		}
		if tr.comp[j] < 0 {
			unfinished++
		}
	}
	r.tail.Reseed(laneTailSeed(r.seed), g*LaneWidth+int64(l))
	mk, done := tr.continueTail(unfinished, maxSteps, &r.tail)
	if r.massB != nil {
		copy(r.massB[l*n:(l+1)*n], tr.mass)
	}
	return mk, done
}

func (r *laneOblivRunner) massLanes() []float64 {
	if r.massB == nil {
		r.massB = make([]float64, r.c.in.N*LaneWidth)
	}
	return r.massB
}

// laneOblivOracle replays the lane engine's numbers one lane at a
// time on the scalar compiled walk (oblivRun parameterized with
// remapDraw) — the exactness oracle for the oblivious lane walk.
type laneOblivOracle struct {
	r     *oblivRunner
	seed  int64
	tr    Stream
	tail  Stream
	mk    [LaneWidth]int32
	massB []float64
}

func (o *laneOblivOracle) runGroup(g int64, cnt, maxSteps int) ([]int32, uint64) {
	gseed := laneGroupSeed(o.seed, g)
	n := o.r.c.in.N
	var completed uint64
	for l := 0; l < cnt; l++ {
		o.tail.Reseed(laneTailSeed(o.seed), g*LaneWidth+int64(l))
		mk, done := oblivRun(o.r, maxSteps, remapDraw{tr: &o.tr, tail: &o.tail, gseed: gseed, lane: uint(l)})
		o.mk[l] = int32(mk)
		if done {
			completed |= uint64(1) << uint(l)
		}
		if o.massB != nil {
			copy(o.massB[l*n:(l+1)*n], o.r.mass)
		}
	}
	return o.mk[:cnt], completed
}

func (o *laneOblivOracle) massLanes() []float64 {
	if o.massB == nil {
		o.massB = make([]float64, o.r.c.in.N*LaneWidth)
	}
	return o.massB
}
