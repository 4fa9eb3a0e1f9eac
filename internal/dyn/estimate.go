package dyn

import (
	"errors"
	"runtime"

	"suu/internal/sched"
	"suu/internal/sim"
	"suu/internal/stats"
)

// Strategy produces per-worker walkers for one scenario. Strategies
// are bound to their scenario at construction (NewStatic, NewAdaptive,
// NewRolling); the estimator gives every worker its own walker, so a
// walker never needs internal locking.
type Strategy interface {
	// Name labels the strategy in tables and BENCH records.
	Name() string
	// NewWalker returns a fresh walker for one worker goroutine.
	NewWalker() Walker
	// StaticPolicy returns a static policy that reproduces the
	// strategy on a scenario with no events, and whether one exists.
	// The estimator delegates event-free scenarios through it to the
	// static engines (compiled and lane paths included), which is what
	// pins the zero-event scenario bit-identical to the static
	// pipeline.
	StaticPolicy() (sched.Policy, bool)
	// parallelizable reports whether walkers may run on concurrent
	// workers (false when they share state the runtime cannot see,
	// e.g. a static wrapper around an outcome-observing policy).
	parallelizable() bool
}

// walkUnit is how many repetitions a worker claims at a time. One
// trajectory costs far more than the atomic add that claims it, and at
// the tens of repetitions a scenario estimate runs, single repetitions
// balance the workers best: 32 repetitions in units of 8 would leave 2
// workers 4 units to split.
const walkUnit = 1

// regimeLabel derives the regime stream's seed domain from the
// simulation seed; completion draws and regime transitions never
// share a stream.
const regimeLabel = "regime"

// Estimate runs reps trajectories of strat on sc sequentially. See
// EstimateInfo for the full form.
func Estimate(sc *Scenario, strat Strategy, reps, maxSteps int, seed int64) (stats.Summary, int, error) {
	sum, inc, _, err := EstimateInfo(sc, strat, reps, maxSteps, seed, 1)
	return sum, inc, err
}

// EstimateInfo runs reps trajectories of strat on sc across workers
// goroutines (<= 0 selects GOMAXPROCS; at most one per repetition)
// and returns the makespan summary, the number of trajectories that
// hit the step cap, and the engine record. Repetition r draws
// completions from stream (seed, r) and regime transitions from
// (SeedFor(seed, "regime"), r), and repetitions run through sim's
// chunk runner (sim.RunChunks), whose repetition-order fold makes the
// summary bit-identical at any worker count. Scenarios with no events
// delegate to the static engines via Strategy.StaticPolicy.
func EstimateInfo(sc *Scenario, strat Strategy, reps, maxSteps int, seed int64, workers int) (stats.Summary, int, sim.EngineUsed, error) {
	if reps <= 0 {
		return stats.Summary{}, 0, sim.EngineUsed{}, errors.New("dyn: reps must be positive")
	}
	tl, err := sc.compile()
	if err != nil {
		return stats.Summary{}, 0, sim.EngineUsed{}, err
	}
	if sc.Static() {
		if pol, ok := strat.StaticPolicy(); ok {
			sum, inc, eng := sim.EstimateParallelInfo(sc.In, pol, reps, maxSteps, seed, workers)
			return sum, inc, eng, nil
		}
	}
	if !strat.parallelizable() || workers == 1 {
		workers = 1
	} else if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Resolve the flat probability backing on this goroutine before
	// workers read it concurrently.
	sc.In.Flat()
	regSeed := sim.SeedFor(seed, regimeLabel)
	sum, incomplete, workers := sim.RunChunks(reps, workers, walkUnit, func() sim.ChunkFunc {
		ws := newWalkState(sc.In, tl)
		w := strat.NewWalker()
		var rng, reg sim.Stream
		return func(lo, hi int, makespans []float64) (inc int) {
			for r := lo; r < hi; r++ {
				rng.Reseed(seed, int64(r))
				reg.Reseed(regSeed, int64(r))
				makespan, completed := ws.run(w, maxSteps, &rng, &reg)
				makespans[r-lo] = float64(makespan)
				if !completed {
					inc++
				}
			}
			return inc
		}
	})
	return sum, incomplete, sim.EngineUsed{Engine: sim.EngineDynamic, Workers: workers}, nil
}
