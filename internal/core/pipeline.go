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
	p := &sched.Pseudo{M: in.M}
	for _, chain := range chains {
		total := 0
		winLen := make([]int, len(chain))
		for k, j := range chain {
			l := 0
			for i := 0; i < in.M; i++ {
				if x[i][j] > l {
					l = x[i][j]
				}
			}
			winLen[k] = l
			total += l
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
		p.Tracks = append(p.Tracks, sched.ChainTrack{Steps: steps})
	}
	return p
}

// PackSequential converts integral counts for independent jobs into a
// feasible oblivious prefix directly: each machine processes its
// assigned job-steps back to back (Theorem 4.5 needs no delays because
// there are no windows to respect). The prefix length is the maximum
// machine load.
func PackSequential(in *model.Instance, x [][]int) *sched.Oblivious {
	length := 0
	for i := range x {
		l := 0
		for _, c := range x[i] {
			l += c
		}
		if l > length {
			length = l
		}
	}
	steps := make([]sched.Assignment, length)
	for s := range steps {
		steps[s] = sched.NewIdle(in.M)
	}
	for i := range x {
		pos := 0
		for j, c := range x[i] {
			for k := 0; k < c; k++ {
				steps[pos][i] = j
				pos++
			}
		}
	}
	return &sched.Oblivious{M: in.M, Steps: steps}
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
// replication), producing the final oblivious schedule.
func finishSchedule(in *model.Instance, core *sched.Oblivious, sigma int) (*sched.Oblivious, error) {
	order, err := in.Prec.TopoOrder()
	if err != nil {
		return nil, err
	}
	repl := core.Replicate(sigma)
	repl.Tail = &sched.TopoRoundRobin{M: in.M, Order: order}
	return repl, nil
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
	return chainsOnBlocks(in, chains, par)
}

// chainsOnBlocks runs the chain pipeline on an explicit chain set
// (either the whole instance's chains or one decomposition block).
func chainsOnBlocks(in *model.Instance, chains [][]int, par Params) (*ChainsResult, error) {
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

// chainsOnBlocksDelayed is chainsOnBlocks with an explicit delay-range
// divisor: delays are drawn from [0, Π_max/divisor] (divisor <= 1
// means the full [0, Π_max] range of Theorem 4.4). Theorem 4.8's
// specialized tree analysis samples from [0, O(Π_max/log n)], trading
// slightly higher congestion for much shorter delayed prefixes. warm
// (may be nil) carries the crash-basis bias across a decomposition's
// per-block solves.
func chainsOnBlocksDelayed(in *model.Instance, chains [][]int, par Params, divisor int, warm *LPWarm) (*ChainsResult, error) {
	frac, err := solveLP1(in, chains, par.MassTarget, lpOptions{dense: par.DenseLP, warm: warm})
	if err != nil {
		return nil, err
	}
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
	flat := pseudo.WithDelays(delays).Flatten().Compact()

	nScope := 0
	for _, c := range chains {
		nScope += len(c)
	}
	final, err := finishSchedule(in, flat, par.sigma(nScope))
	if err != nil {
		return nil, err
	}
	return &ChainsResult{
		OblResult: OblResult{
			Schedule:     final,
			CoreLength:   flat.Len(),
			MassAchieved: ints.MinMass(in),
			TGuess:       int(frac.T + 1),
		},
		TStar:      frac.T,
		LowerBound: CombinedLowerBound(in, frac.T),
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
	jobs := make([]int, in.N)
	for j := range jobs {
		jobs[j] = j
	}
	frac, err := solveLP2(in, jobs, par.MassTarget, lpOptions{dense: par.DenseLP, crash: par.WarmBasis})
	if err != nil {
		return nil, err
	}
	ints, err := RoundLP(in, frac, par.MassTarget)
	if err != nil {
		return nil, err
	}
	packed := PackSequential(in, ints.X)
	final, err := finishSchedule(in, packed, par.sigma(in.N))
	if err != nil {
		return nil, err
	}
	return &ChainsResult{
		OblResult: OblResult{
			Schedule:     final,
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
func SUUForest(in *model.Instance, par Params) (*ForestResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	dc := in.Prec.ChainDecomposition()
	res := &ForestResult{Decomposition: dc}
	blocks := make([]*sched.Oblivious, 0, len(dc.Blocks))
	coreLen := 0
	minMass := 1.0
	// Theorem 4.8 (rank-decomposed trees/forests): delays within a
	// block are drawn from [0, O(Π_max/log n)]; the general Theorem 4.7
	// fallback keeps the full range.
	divisor := 0
	switch dc.Method {
	case "rank-out", "rank-in", "per-component":
		divisor = log2Ceil(in.N)
	}
	// Consecutive block solves share a warm-start context: each block's
	// crash basis is biased away from the machines earlier blocks
	// loaded, which shortens phase 1 measurably on specialist-shaped
	// instances.
	warm := NewLPWarm(in.M)
	for bi, block := range dc.Blocks {
		br, err := chainsOnBlocksDelayed(in, block.Chains, par, divisor, warm)
		if err != nil {
			return nil, fmt.Errorf("core: block %d: %w", bi, err)
		}
		res.BlockResults = append(res.BlockResults, br)
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
		coreLen += br.CoreLength
		// br.Schedule's prefix is the replicated block schedule; its
		// tail is replaced below.
		blocks = append(blocks, br.Schedule)
	}
	if tlb := TrivialLowerBound(in); tlb > res.LowerBound {
		res.LowerBound = tlb
	}
	order, err := in.Prec.TopoOrder()
	if err != nil {
		return nil, err
	}
	combined := sched.Concat(blocks...)
	combined.Tail = &sched.TopoRoundRobin{M: in.M, Order: order}
	res.Schedule = combined
	res.CoreLength = coreLen
	res.MassAchieved = minMass
	return res, nil
}
