package core

import (
	"errors"
	"fmt"
	"math/rand"

	"suu/internal/dag"
	"suu/internal/lp"
	"suu/internal/model"
	"suu/internal/sched"
)

// BuildPseudo lays the integral counts out as a pseudo-schedule
// (Theorem 4.1's final construction): within each chain, job j owns a
// window of L_j = max_i X[i][j] consecutive steps starting after all
// its chain predecessors' windows (ψ_j = Σ_{j'≺j} L_{j'}); machine i
// serves j during the first X[i][j] steps of the window. Different
// chains become separate tracks, so the union may congest machines —
// that is repaired later by delays + flattening.
func BuildPseudo(in *model.Instance, chains [][]int, x [][]int) *sched.Pseudo {
	p := &sched.Pseudo{M: in.M, Tracks: make([]*sched.Oblivious, len(chains))}
	for k, chain := range chains {
		p.Tracks[k] = pack(in.M, x, chain, true, 0)
	}
	return p
}

// PackSequential converts integral counts for independent jobs into a
// feasible oblivious prefix directly: each machine processes its
// assigned job-steps back to back (Theorem 4.5 needs no delays because
// there are no windows to respect). The prefix length is the maximum
// machine load.
func PackSequential(in *model.Instance, x [][]int) *sched.Oblivious {
	return pack(in.M, x, allJobs(in.N), false, 0)
}

// pack is the one count packer behind PackSequential,
// ScheduleFromCounts and BuildPseudo. Machine i serves jobs[0],
// jobs[1], ... in order, working x[i][j] steps on job j from the start
// of j's slot. A slot ends with the machine's own steps on the job, so
// that it packs its jobs back to back, or, when windowed, with j's
// window, the largest count any machine has on j, so that every machine
// starts a job together. The prefix ends with the last slot, padded
// with idle steps to minLen.
//
// The prefix changes only where some machine's work or slot ends, so
// the sweep visits those boundaries and builds one assignment per
// segment between them, played as one run for the segment's steps;
// once every machine is done, one idle segment pads to the length.
func pack(m int, x [][]int, jobs []int, windowed bool, minLen int) *sched.Oblivious {
	var win []int
	if windowed {
		win = make([]int, len(jobs))
		for k, j := range jobs {
			for i := range x {
				win[k] = max(win[k], x[i][j])
			}
		}
	}
	length := minLen
	for _, row := range x {
		l := 0
		for k, j := range jobs {
			if windowed {
				l += win[k]
			} else {
				l += row[j]
			}
		}
		length = max(length, l)
	}
	var segs []sched.Assignment
	var counts []int
	// Machine i plays jobs[k[i]-1] until step busy[i] and idles until
	// its slot ends at step end[i]; it idles for good once k[i] passes
	// its last job.
	k := make([]int, m)
	busy := make([]int, m)
	end := make([]int, m)
	for t := 0; t < length; {
		seg := sched.NewIdle(m)
		next := length
		for i, row := range x {
			for end[i] <= t && k[i] < len(jobs) {
				c := row[jobs[k[i]]]
				busy[i] = end[i] + c
				if windowed {
					c = win[k[i]]
				}
				end[i] += c
				k[i]++
			}
			if busy[i] > t {
				seg[i] = jobs[k[i]-1]
				next = min(next, busy[i])
			} else if end[i] > t {
				next = min(next, end[i])
			}
		}
		segs = append(segs, seg)
		counts = append(counts, next-t)
		t = next
	}
	return sched.NewObliviousRuns(m, segs, counts, nil)
}

// allJobs returns the job indices 0..n-1 in order.
func allJobs(n int) []int {
	jobs := make([]int, n)
	for j := range jobs {
		jobs[j] = j
	}
	return jobs
}

// splitMixSource is a SplitMix64-backed rand.Source64: statistically
// solid for the delay search and ~500× cheaper to seed than the
// stdlib source, which matters when the forest pipeline builds one
// per decomposition block.
type splitMixSource struct{ s uint64 }

func newSplitMixSource(seed int64) *splitMixSource {
	return &splitMixSource{s: uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d}
}

func (s *splitMixSource) Uint64() uint64 {
	s.s += 0x9e3779b97f4a7c15
	z := s.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitMixSource) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitMixSource) Seed(seed int64) { *s = *newSplitMixSource(seed) }

// finishSchedule replicates the core prefix σ times and appends the
// topological round-robin tail Σ_o,3 (Section 4.1's schedule
// replication) over order, a topological order of in.Prec that the
// tail only reads, producing the final oblivious schedule.
func finishSchedule(in *model.Instance, core *sched.Oblivious, sigma int, order []int) *sched.Oblivious {
	repl := core.Replicate(sigma)
	repl.Tail = &sched.TopoRoundRobin{M: in.M, Order: order}
	return repl
}

// ChainsResult extends OblResult with the chain pipeline's diagnostics.
type ChainsResult struct {
	OblResult
	// TStar is the (LP1) optimum (T* ≤ 16·T_OPT by Lemma 4.2).
	TStar float64
	// LowerBound is T*/16, a certified lower bound on T_OPT.
	LowerBound float64
	// MaxLoad is Π_max of the pseudo-schedule before delays.
	MaxLoad int
	// Congestion is the max machine congestion after the chosen delays.
	Congestion int
	// Delays is the chosen per-chain delay vector.
	Delays []int
	// Round is the integral rounding used.
	Round *IntSolution
	// LPPivots, LPRows, LPCols and LPNnz report the LP solve's effort
	// and dimensions, for the perf harness.
	LPPivots, LPRows, LPCols, LPNnz int
	// LPBasis is the optimal simplex basis of the solve, for warm-start
	// caches (see Params.WarmBasis). Non-nil only on the direct sparse
	// (LP2) path.
	LPBasis *lp.Basis
}

// SUUChains is the algorithm of Theorem 4.4 for disjoint-chain
// precedence constraints: solve (LP1), round (Theorem 4.1), lay out
// the pseudo-schedule, choose random delays, flatten to a feasible
// oblivious schedule, replicate, and append the round-robin tail. The
// expected makespan of the result is within
// O(log m · log n · log(n+m)/loglog(n+m)) of optimal.
func SUUChains(in *model.Instance, par Params) (*ChainsResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	chains, err := in.Prec.Chains()
	if err != nil {
		return nil, fmt.Errorf("core: SUU-C needs disjoint chains: %w", err)
	}
	return chainsOnBlocksDelayed(in, chains, par, 0, nil)
}

// SUUChainsOnBlock runs the Theorem 4.4 chain pipeline (full
// [0, Π_max] delay range) on an explicit set of disjoint chains — a
// subset of the instance's jobs, such as one decomposition block. Used
// by the delay-range ablation; SUUChains validates the whole dag is
// chains, this entry point trusts the caller's chain set.
func SUUChainsOnBlock(in *model.Instance, chains [][]int, par Params) (*ChainsResult, error) {
	return chainsOnBlocksDelayed(in, chains, par, 0, nil)
}

// chainsOnBlocksDelayed runs the chain pipeline on an explicit chain
// set (the whole instance's chains or one decomposition block): the LP
// stage (solveLP1) and then the finish stage (finishChains), back to
// back. Delays are drawn from [0, Π_max/divisor] (divisor <= 1 means
// the full [0, Π_max] range of Theorem 4.4); Theorem 4.8's specialized
// tree analysis samples from [0, O(Π_max/log n)], trading slightly
// higher congestion for much shorter delayed prefixes. warm (may be
// nil) carries the crash-basis bias across a decomposition's per-block
// solves. SUUForest runs the same two stages per block, but finishes
// each block while the next block's LP solves.
func chainsOnBlocksDelayed(in *model.Instance, chains [][]int, par Params, divisor int, warm *LPWarm) (*ChainsResult, error) {
	frac, err := solveLP1(in, chains, par.MassTarget, lpOptions{dense: par.DenseLP, warm: warm})
	if err != nil {
		return nil, err
	}
	order, err := in.Prec.TopoOrder()
	if err != nil {
		return nil, err
	}
	return finishChains(in, chains, par, divisor, frac, order, TrivialLowerBound(in))
}

// finishChains is the chain pipeline's finish stage: it rounds the
// (LP1) solution frac, lays out the pseudo-schedule, chooses the
// delays, flattens the delayed tracks in one pass (which drops every
// step no track occupies), replicates and appends the round-robin
// tail over order, a topological order of in.Prec. trivial is
// TrivialLowerBound(in), which the lower bound combines with frac's.
// It reads only its arguments (frac is this chain set's own solution,
// and par.Seed alone seeds the delay search), so the finish stages of
// different blocks may run concurrently and in any order with the same
// bits.
func finishChains(in *model.Instance, chains [][]int, par Params, divisor int, frac *FracSolution, order []int, trivial float64) (*ChainsResult, error) {
	ints, err := RoundLP(in, frac, par.MassTarget)
	if err != nil {
		return nil, err
	}
	pseudo := BuildPseudo(in, chains, ints.X)
	maxLoad := pseudo.MaxLoad()
	maxDelay := maxLoad
	if divisor > 1 {
		maxDelay = maxLoad / divisor
		if maxDelay < 1 {
			maxDelay = 1
		}
	}
	rng := rand.New(newSplitMixSource(par.Seed))
	delays, cong := pseudo.BestDelays(maxDelay, par.DelayTries, rng)
	flat := pseudo.Flatten(delays)

	nScope := 0
	for _, c := range chains {
		nScope += len(c)
	}
	return &ChainsResult{
		OblResult: OblResult{
			Schedule:     finishSchedule(in, flat, par.sigma(nScope), order),
			CoreLength:   flat.Len(),
			MassAchieved: ints.MinMass(in),
			TGuess:       int(frac.T + 1),
		},
		TStar:      frac.T,
		LowerBound: combineLowerBounds(trivial, frac.T),
		MaxLoad:    maxLoad,
		Congestion: cong,
		Delays:     delays,
		Round:      ints,
		LPPivots:   frac.Iterations,
		LPRows:     frac.Rows,
		LPCols:     frac.Cols,
		LPNnz:      frac.Nnz,
	}, nil
}

// SUUIndependentLP is the LP-based oblivious algorithm of Theorem 4.5
// for independent jobs: solve (LP2), round, pack each machine's counts
// back to back, replicate, append the tail. Expected makespan within
// O(log n · log min(n,m)) of optimal.
func SUUIndependentLP(in *model.Instance, par Params) (*ChainsResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.Prec.E() != 0 {
		return nil, errors.New("core: SUUIndependentLP requires independent jobs")
	}
	frac, err := solveLP2(in, allJobs(in.N), par.MassTarget, lpOptions{dense: par.DenseLP, crash: par.WarmBasis})
	if err != nil {
		return nil, err
	}
	ints, err := RoundLP(in, frac, par.MassTarget)
	if err != nil {
		return nil, err
	}
	packed := PackSequential(in, ints.X)
	order, err := in.Prec.TopoOrder()
	if err != nil {
		return nil, err
	}
	return &ChainsResult{
		OblResult: OblResult{
			Schedule:     finishSchedule(in, packed, par.sigma(in.N), order),
			CoreLength:   packed.Len(),
			MassAchieved: ints.MinMass(in),
			TGuess:       int(frac.T + 1),
		},
		TStar:      frac.T,
		LowerBound: CombinedLowerBound(in, frac.T),
		MaxLoad:    packed.Len(),
		Congestion: 1,
		Round:      ints,
		LPPivots:   frac.Iterations,
		LPRows:     frac.Rows,
		LPCols:     frac.Cols,
		LPNnz:      frac.Nnz,
		LPBasis:    frac.Basis,
	}, nil
}

// ForestResult aggregates the per-block chain results of the
// tree/forest pipeline.
type ForestResult struct {
	OblResult
	// Decomposition is the chain decomposition used.
	Decomposition *dag.Decomposition
	// BlockResults holds each block's chain-pipeline diagnostics.
	BlockResults []*ChainsResult
	// LowerBound is the largest per-block LP lower bound (each block is
	// a subset of the jobs, so each bound is valid for the full
	// instance).
	LowerBound float64
	// LPPivots totals the simplex pivots across all block solves;
	// LPRows, LPCols and LPNnz report the largest block LP's
	// dimensions.
	LPPivots, LPRows, LPCols, LPNnz int
}

// SUUForest is the algorithm of Theorems 4.7 and 4.8: decompose the
// dag into O(log n) blocks of disjoint chains (rank decomposition for
// in-/out-forests, per-component merge for mixed forests, level
// decomposition as the general fallback), run the chain pipeline on
// every block, and concatenate the block schedules in order. Property
// (ii) of the decomposition makes the concatenation precedence-
// feasible; each block is replicated before the next begins so that
// all its jobs finish with high probability.
//
// Each block runs the chain pipeline's two stages. The LP stages run
// in block order on the calling goroutine, because each block's crash
// basis (LPWarm) depends on the loads of the blocks solved before it.
// A block's finish stage reads only its own LP solution, the instance,
// par.Seed and the build's trivial lower bound, so one extra goroutine
// finishes each block while the next block's LP solves (twoStage), and
// the caller joins in once its last LP is solved. A forest build thus
// may use one goroutine besides the caller's; a one-block
// decomposition uses none. The results are
// bit-identical to the sequential loop's at any GOMAXPROCS, and a
// failure returns the earliest failing block's error, as the loop did.
func SUUForest(in *model.Instance, par Params) (*ForestResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	dc := in.Prec.ChainDecomposition()
	// Theorem 4.8 (rank-decomposed trees/forests): delays within a
	// block are drawn from [0, O(Π_max/log n)]; the general Theorem 4.7
	// fallback keeps the full range.
	divisor := 0
	switch dc.Method {
	case "rank-out", "rank-in", "per-component":
		divisor = log2Ceil(in.N)
	}
	// One topological order serves every block's tail and the final
	// one; the tails only read it.
	order, err := in.Prec.TopoOrder()
	if err != nil {
		return nil, err
	}
	// Every block's lower bound and the forest's own start from the
	// same trivial bound, which the finish stages only read.
	trivial := TrivialLowerBound(in)
	// Consecutive block solves share a warm-start context: each block's
	// crash basis is biased away from the machines earlier blocks
	// loaded, which shortens phase 1 measurably on specialist-shaped
	// instances.
	warm := NewLPWarm(in.M)
	results, err := twoStage(len(dc.Blocks),
		func(bi int) (*FracSolution, error) {
			frac, err := solveLP1(in, dc.Blocks[bi].Chains, par.MassTarget, lpOptions{dense: par.DenseLP, warm: warm})
			if err != nil {
				return nil, fmt.Errorf("core: block %d: %w", bi, err)
			}
			return frac, nil
		},
		func(bi int, frac *FracSolution) (*ChainsResult, error) {
			br, err := finishChains(in, dc.Blocks[bi].Chains, par, divisor, frac, order, trivial)
			if err != nil {
				return nil, fmt.Errorf("core: block %d: %w", bi, err)
			}
			return br, nil
		})
	if err != nil {
		return nil, err
	}
	res := &ForestResult{Decomposition: dc, BlockResults: results}
	blocks := make([]*sched.Oblivious, len(results))
	minMass := 1.0
	for bi, br := range results {
		res.LPPivots += br.LPPivots
		if br.LPRows > res.LPRows {
			res.LPRows, res.LPCols, res.LPNnz = br.LPRows, br.LPCols, br.LPNnz
		}
		if br.LowerBound > res.LowerBound {
			res.LowerBound = br.LowerBound
		}
		if br.MassAchieved < minMass {
			minMass = br.MassAchieved
		}
		res.CoreLength += br.CoreLength
		// br.Schedule's prefix is the replicated block schedule; its
		// tail is replaced below.
		blocks[bi] = br.Schedule
	}
	if trivial > res.LowerBound {
		res.LowerBound = trivial
	}
	combined := sched.Concat(blocks...)
	combined.Tail = &sched.TopoRoundRobin{M: in.M, Order: order}
	res.Schedule = combined
	res.MassAchieved = minMass
	return res, nil
}
