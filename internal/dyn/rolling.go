package dyn

import (
	"fmt"
	"sync"

	"suu/internal/core"
	"suu/internal/lp"
	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/sim"
	"suu/internal/solve"
)

// RollingStrategy is the rolling-horizon re-solver: at every event
// epoch it extracts the surviving sub-instance — arrived unfinished
// jobs whose unfinished predecessors survive too and that some up
// machine can run, over the up machines — and re-invokes a registry
// solver on it, then plays the resulting schedule (translated back to
// global indices) until the next epoch.
//
// Determinism under sharding is load-bearing here: plans are cached
// per (surviving-jobs, up-machines) key, the construction seed of a
// keyed solve derives from the key alone, and the warm-start donor is
// fixed (the initial full solve's exported LP basis, adopted by the
// core only when row-compatible). A cached plan is therefore a pure
// function of its key, so trajectories are bit-identical however
// repetitions are distributed over workers — which is also why every
// walker may share one cache, whichever walker builds a plan first.
type RollingStrategy struct {
	sc     *Scenario
	topo   []int
	solver string
	par    core.Params

	initial *plan
	// warm is the initial solve's exported optimal basis
	// (solve.Result.LPBasis, non-nil only for direct sparse LP
	// constructions). Every epoch re-solve offers it through
	// core.Params.WarmBasis → lp.SolveFrom; the core adopts it when
	// the sub-LP's row count matches and synthesizes a crash basis
	// otherwise.
	warm *lp.Basis

	// plans is the plan cache every walker shares, keyed by packKey and
	// pre-seeded with the initial plan; each entry is built once.
	mu    sync.Mutex
	plans map[string]*planEntry
}

// NewRolling builds the rolling strategy for sc. solverID names a
// registry solver ("" or "auto" dispatches per sub-instance class);
// par seeds the constructions — the initial full solve uses par.Seed
// itself, which is what makes an event-free scenario's plan
// bit-identical to solve.Auto on the original instance. The initial
// solve runs eagerly so configuration errors surface here, not mid-
// walk.
func NewRolling(sc *Scenario, solverID string, par core.Params) (*RollingStrategy, error) {
	if solverID == "auto" {
		solverID = ""
	}
	if solverID != "" {
		if _, ok := solve.Get(solverID); !ok {
			return nil, fmt.Errorf("dyn: unknown solver %q", solverID)
		}
	}
	tl, err := sc.compile()
	if err != nil {
		return nil, err
	}
	topo, _ := sc.In.Prec.TopoOrder() // compile checked the dag
	s := &RollingStrategy{sc: sc, topo: topo, solver: solverID, par: par}
	n, m := sc.In.N, sc.In.M
	keep := make([]bool, n)
	up := make([]bool, m)
	arrived := make([]bool, n)
	unfinished := make([]bool, n)
	for j := 0; j < n; j++ {
		arrived[j] = tl.Arrive[j] == 0
		unfinished[j] = true
	}
	for i := 0; i < m; i++ {
		up[i] = !tl.Down(i, 0)
	}
	s.computeKeep(arrived, unfinished, up, keep)
	pl, basis, err := s.buildPlan(keep, up, par.Seed, nil)
	if err != nil {
		return nil, err
	}
	s.initial, s.warm = pl, basis
	e := &planEntry{}
	e.once.Do(func() { e.pl = pl })
	s.plans = map[string]*planEntry{packKey(keep, up): e}
	return s, nil
}

// Name implements Strategy.
func (s *RollingStrategy) Name() string { return "rolling" }

// StaticPolicy implements Strategy: on an event-free scenario the
// only epoch is step 0 and the surviving sub-instance is the full
// instance, so the initial plan's policy is the whole strategy.
func (s *RollingStrategy) StaticPolicy() (sched.Policy, bool) {
	if s.sc.Static() && s.initial.pol != nil {
		return s.initial.pol, true
	}
	return nil, false
}

// parallelizable defers to the registry flag of the configured solver
// (auto dispatches to oblivious constructions, all parallelizable).
// Walkers share the cached plans' policies.
func (s *RollingStrategy) parallelizable() bool {
	if s.solver == "" {
		return true
	}
	sv, ok := solve.Get(s.solver)
	return ok && sv.Parallelizable
}

// NewWalker implements Strategy. Walkers share the strategy's plan
// cache and keep their own projection scratch.
func (s *RollingStrategy) NewWalker() sched.Policy {
	n, m := s.sc.In.N, s.sc.In.M
	return &rollingWalker{
		s:       s,
		keep:    make([]bool, n),
		subUnf:  make([]bool, n),
		subElig: make([]bool, n),
		out:     make(sched.Assignment, m),
	}
}

// planEntry is one key's slot in the shared plan cache: the first
// walker to reach the key builds pl inside once, and every other
// walker waits for it.
type planEntry struct {
	once sync.Once
	pl   *plan
}

// plan is one cached sub-solve: the built policy in sub-instance
// index space plus the translation maps. Immutable after
// construction — walkers keep their own projection scratch.
type plan struct {
	// idle marks an empty sub-instance (nothing runnable until the
	// next epoch).
	idle bool
	// fallback marks a failed sub-solve: the walker plays masked MSM
	// until the next epoch instead. Deterministic (the same key fails
	// identically everywhere), so sharding still byte-matches.
	fallback bool
	pol      sched.Policy
	// mToSub maps global machine → sub machine (-1 = down).
	mToSub []int
	// jGlobal maps sub job → global job.
	jGlobal []int
}

type rollingWalker struct {
	s        *RollingStrategy
	cur      *plan
	curStart int
	keep     []bool
	subUnf   []bool
	subElig  []bool
	out      sched.Assignment
	subState sched.State
	// msm plays the masked-MSM fallback, built on its first use.
	msm *msmWalker
}

// Assign implements sched.Policy. Step 0 is always an epoch, so every
// trajectory replans before its first step.
func (w *rollingWalker) Assign(st *sched.State) sched.Assignment {
	if st.Epoch {
		w.replan(st)
	}
	pl := w.cur
	if pl.fallback {
		if w.msm == nil {
			w.msm = newMSMWalker(w.s.sc.In)
		}
		return w.msm.Assign(st)
	}
	for i := range w.out {
		w.out[i] = sched.Idle
	}
	if pl.idle {
		return w.out
	}
	// Project the global state into sub indices (predecessors outside
	// the sub are finished by construction, so eligibility carries
	// over unchanged), ask the sub policy, translate back.
	for k, gj := range pl.jGlobal {
		w.subUnf[k] = st.Unfinished[gj]
		w.subElig[k] = st.Eligible[gj]
	}
	// Set the fields in place: assigning a State literal would copy the
	// whole struct every step.
	w.subState.Unfinished = w.subUnf[:len(pl.jGlobal)]
	w.subState.Eligible = w.subElig[:len(pl.jGlobal)]
	w.subState.Step = st.Step - w.curStart
	sub := pl.pol.Assign(&w.subState)
	for i, si := range pl.mToSub {
		if si < 0 {
			continue
		}
		js := sub[si]
		if js == sched.Idle || js < 0 || js >= len(pl.jGlobal) {
			continue
		}
		w.out[i] = pl.jGlobal[js]
	}
	return w.out
}

// replan computes the surviving sub-instance key for the current
// state and installs its plan.
func (w *rollingWalker) replan(st *sched.State) {
	w.s.computeKeep(st.Arrived, st.Unfinished, st.Up, w.keep)
	w.cur = w.s.plan(w.keep, st.Up)
	w.curStart = st.Step
}

// plan returns the cached plan of (keep, up), building it on the first
// request for its key.
func (s *RollingStrategy) plan(keep, up []bool) *plan {
	key := packKey(keep, up)
	s.mu.Lock()
	e, ok := s.plans[key]
	if !ok {
		e = &planEntry{}
		s.plans[key] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		pl, _, err := s.buildPlan(keep, up, keySeed(s.par.Seed, keep, up), s.warm)
		if err != nil {
			pl = &plan{fallback: true}
		}
		e.pl = pl
	})
	return e.pl
}

// computeKeep marks the surviving jobs in topological order: arrived,
// unfinished, runnable by some up machine, and with no unfinished
// predecessor outside the kept set (such a job cannot start before
// the next epoch anyway, and including it would hand the sub-solver a
// dangling precedence edge).
func (s *RollingStrategy) computeKeep(arrived, unfinished, up, keep []bool) {
	in := s.sc.In
	for _, j := range s.topo {
		k := arrived[j] && unfinished[j]
		if k {
			capable := false
			for i := 0; i < in.M; i++ {
				if up[i] && in.P[i][j] > 0 {
					capable = true
					break
				}
			}
			k = capable
		}
		if k {
			for _, pr := range in.Prec.Preds(j) {
				if unfinished[pr] && !keep[pr] {
					k = false
					break
				}
			}
		}
		keep[j] = k
	}
}

// buildPlan solves the sub-instance selected by (keep, up) with the
// configured solver, seed and warm-basis donor. When the selection is
// the full instance it solves the original model.Instance directly —
// identical edge insertion order, so the plan (and for an event-free
// scenario the whole strategy) is bit-identical to solving the
// instance statically.
func (s *RollingStrategy) buildPlan(keep, up []bool, seed int64, warm *lp.Basis) (*plan, *lp.Basis, error) {
	in := s.sc.In
	jGlobal := make([]int, 0, in.N)
	subIdx := make([]int, in.N)
	for j := 0; j < in.N; j++ {
		subIdx[j] = -1
		if keep[j] {
			subIdx[j] = len(jGlobal)
			jGlobal = append(jGlobal, j)
		}
	}
	mToSub := make([]int, in.M)
	mGlobal := make([]int, 0, in.M)
	for i := 0; i < in.M; i++ {
		mToSub[i] = -1
		if up[i] {
			mToSub[i] = len(mGlobal)
			mGlobal = append(mGlobal, i)
		}
	}
	if len(jGlobal) == 0 || len(mGlobal) == 0 {
		return &plan{idle: true}, nil, nil
	}
	target := in
	if len(jGlobal) < in.N || len(mGlobal) < in.M {
		sub := model.New(len(jGlobal), len(mGlobal))
		for si, gi := range mGlobal {
			for sj, gj := range jGlobal {
				sub.P[si][sj] = in.P[gi][gj]
			}
		}
		for sj, gj := range jGlobal {
			for _, gs := range in.Prec.Succs(gj) {
				if subIdx[gs] >= 0 {
					sub.Prec.MustEdge(sj, subIdx[gs])
				}
			}
		}
		target = sub
	}
	par := s.par
	par.Seed = seed
	par.WarmBasis = warm
	var res *solve.Result
	var err error
	if s.solver == "" {
		_, res, err = solve.Auto(target, par)
	} else {
		sv, _ := solve.Get(s.solver)
		res, err = sv.Build(target, par)
	}
	if err != nil {
		return nil, nil, err
	}
	return &plan{pol: res.Policy, mToSub: mToSub, jGlobal: jGlobal}, res.LPBasis, nil
}

// packKey encodes (keep, up) as a compact byte string — the plan
// cache key. Lengths are fixed per scenario, so bit-packing is
// unambiguous.
func packKey(keep, up []bool) string {
	buf := make([]byte, 0, (len(keep)+len(up))/8+2)
	var acc byte
	nbits := 0
	push := func(b bool) {
		acc <<= 1
		if b {
			acc |= 1
		}
		nbits++
		if nbits == 8 {
			buf = append(buf, acc)
			acc, nbits = 0, 0
		}
	}
	for _, b := range keep {
		push(b)
	}
	for _, b := range up {
		push(b)
	}
	if nbits > 0 {
		buf = append(buf, acc<<(8-nbits))
	}
	return string(buf)
}

// keySeed derives a sub-solve's construction seed from the plan key
// alone (mask words fed through sim.SeedFor), never from which
// trajectory or worker triggered the solve — the purity that keeps
// rolling estimates worker-count- and shard-invariant.
func keySeed(root int64, keep, up []bool) int64 {
	return sim.SeedFor(sim.SeedFor(root, "roll-keep", maskWords(keep)...), "roll-up", maskWords(up)...)
}

// maskWords packs a boolean mask into 64-bit words for seed
// derivation.
func maskWords(mask []bool) []int64 {
	words := make([]int64, (len(mask)+63)/64)
	for idx, b := range mask {
		if b {
			words[idx/64] |= 1 << uint(idx%64)
		}
	}
	return words
}
