package core

import (
	"math"

	"suu/internal/lp"
)

// Params collects the tunable constants of the constructions. The
// defaults are the constants used in the paper's proofs; the ablation
// experiments sweep them.
type Params struct {
	// MassTarget is the per-job mass every oblivious construction
	// certifies before replication (the paper uses 1/2 in (LP1)).
	MassTarget float64
	// ReplicationFactor scales the σ = ReplicationFactor·⌈log₂ n⌉
	// schedule replication of Section 4.1 (16 in the paper).
	ReplicationFactor int
	// DelayTries is how many uniformly random delay vectors the
	// Las-Vegas delay search samples (the zero vector is always
	// considered too).
	DelayTries int
	// Seed drives every randomized choice of the constructions.
	Seed int64
	// Optimism scales the UCB-style exploration bonus of the online
	// learning policy (§5 extension); 0 disables exploration.
	Optimism float64
	// DenseLP routes the (LP1)/(LP2) solves through the dense tableau
	// oracle instead of the sparse revised simplex. The schedules it
	// yields may sit at a different optimal vertex; T* is identical up
	// to LP tolerance. Used by cross-checks and the benchmark harness.
	DenseLP bool
	// WarmBasis, when non-nil and row-compatible, seeds the (LP2) solve
	// of SUUIndependentLP in place of the synthesized crash basis — the
	// warm-start hook for caches (internal/serve) that keep the optimal
	// basis of an earlier solve of the identical instance. Feeding a
	// solve its own optimal basis re-derives the same vertex pivot-free;
	// T* agrees with the cold solve to floating-point roundoff (fresh
	// factorization vs the cold run's eta file) and the rounding and
	// schedule are unchanged (pinned by test). Runtime-only: never
	// serialized with the params, ignored by the dense oracle and by
	// pipelines that solve (LP1) lazily (their final bases span
	// generated cut rows and could not be adopted).
	WarmBasis *lp.Basis
}

// DefaultParams returns the paper's constants.
func DefaultParams() Params {
	return Params{
		MassTarget:        0.5,
		ReplicationFactor: 16,
		DelayTries:        64,
		Seed:              1,
		Optimism:          0.7,
	}
}

// log2Ceil returns ⌈log₂ x⌉ for x ≥ 1 (and 1 for x ≤ 2 to keep factors
// positive on tiny instances).
func log2Ceil(x int) int {
	if x <= 2 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(x))))
}

// sigma returns the replication factor σ = ReplicationFactor·⌈log₂ n⌉.
func (p Params) sigma(n int) int {
	s := p.ReplicationFactor * log2Ceil(n)
	if s < 1 {
		return 1
	}
	return s
}
