package suu

import "suu/internal/core"

// options is the single configuration vocabulary behind every public
// entry point: solver construction (Solve, Adaptive, Learning,
// ObliviousCombinatorial, LowerBound), Monte Carlo estimation
// (EstimateMakespan, MakespanQuantiles) and dynamic scenarios
// (Scenario.Estimate*). Each call reads the fields it cares about and
// ignores the rest, so any Option can be passed anywhere — WithSeed
// means "the seed" whether the thing being seeded is a construction
// or a simulation.
type options struct {
	par      core.Params
	maxSteps int
	simSeed  int64
	workers  int
	solver   string
}

func buildOptions(opts []Option) options {
	o := options{
		par:      core.DefaultParams(),
		maxSteps: 1_000_000,
		simSeed:  1,
		workers:  1,
	}
	for _, f := range opts {
		f(&o)
	}
	return o
}

// buildParams resolves only the solver-facing parameters.
func buildParams(opts []Option) core.Params { return buildOptions(opts).par }

// Option configures any public entry point — solving, estimation, or
// scenario evaluation. All option constructors in this package return
// this one type.
type Option func(*options)

// EstimateOption is the pre-unification name for estimation options.
//
// Deprecated: every option is an Option now; the alias remains so old
// signatures keep compiling unchanged.
type EstimateOption = Option

// WithSeed fixes the seed of every randomized construction step and
// of the Monte Carlo executions. It is the one seed knob: calls that
// both construct and simulate derive their simulation streams from it
// deterministically.
func WithSeed(seed int64) Option {
	return func(o *options) {
		o.par.Seed = seed
		o.simSeed = seed
	}
}

// WithSimSeed seeds only the Monte Carlo executions (default 1),
// leaving construction seeds alone. Prefer WithSeed unless the two
// must differ.
func WithSimSeed(seed int64) Option {
	return func(o *options) { o.simSeed = seed }
}

// WithMassTarget overrides the per-job mass target of the LP
// constructions (default 1/2, the paper's constant).
func WithMassTarget(target float64) Option {
	return func(o *options) { o.par.MassTarget = target }
}

// WithReplicationFactor overrides the σ = factor·⌈log₂ n⌉ schedule
// replication (default 16).
func WithReplicationFactor(factor int) Option {
	return func(o *options) { o.par.ReplicationFactor = factor }
}

// WithDelayTries sets how many random delay vectors the Las-Vegas
// delay search samples (default 64).
func WithDelayTries(tries int) Option {
	return func(o *options) { o.par.DelayTries = tries }
}

// WithOptimism scales the learning policy's UCB-style exploration
// bonus (default 0.7; 0 disables exploration). Ignored outside
// Learning.
func WithOptimism(optimism float64) Option {
	return func(o *options) { o.par.Optimism = optimism }
}

// WithMaxSteps caps each simulated execution (default 1,000,000).
func WithMaxSteps(steps int) Option {
	return func(o *options) { o.maxSteps = steps }
}

// WithWorkers sets the Monte Carlo fan-out: 1 (the default) runs
// sequentially, 0 uses every CPU, n > 1 uses n goroutines at any
// repetition count, capped at one per work unit: workers claim 8
// repetitions at a time, one on a Scenario's dynamic walk, and one
// 64-repetition group on the bit-parallel engine. It applies to
// EstimateMakespan, MakespanQuantiles and the Scenario estimates. Results are
// bit-identical at any worker count; policies that must observe
// outcomes sequentially silently run with one worker (the Estimate's
// Engine.Workers reports the effective value).
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithSolver names the registry solver a rolling scenario estimate
// re-invokes at each event epoch ("" or "auto" dispatches on the
// sub-instance's precedence class). Ignored outside
// Scenario.EstimateRolling.
func WithSolver(id string) Option {
	return func(o *options) { o.solver = id }
}
