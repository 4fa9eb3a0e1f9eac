// Package sim executes SUU schedules. It provides a Monte Carlo
// engine that runs any sched.Policy on an instance, tracking job
// completions, eligibility under the precedence dag, and per-job mass
// accumulation (Definition 2.4), plus estimators that aggregate many
// runs into makespan summaries.
//
// # Engine architecture
//
// Three engines share one semantics. The generic step engine
// (runState) advances one step at a time, asking the policy for an
// assignment and drawing one uniform per (eligible, assigned) job per
// step; all per-run buffers live in a reusable runState, so the step
// loop is allocation-free. When the policy is a *sched.Oblivious, the
// estimators compile its prefix once into per-job occurrence lists
// and replay repetitions event-wise (see oblivious.go), falling back
// to the step engine for any repetition that outlives the prefix;
// calls of BitParallelAutoMinReps repetitions or more run that walk
// 64 repetitions per machine word (see lane.go), under a pinned
// SeedFor-derived stream remap. When the policy is stationary
// (sched.Memoizable) on at most 64 jobs, each worker memoizes one
// assignment digest per unfinished-set key the first time a
// repetition reaches it and replays repetitions as walks over the
// memo (see adaptive.go), draw for draw identical to the step engine;
// a bounded memo digests states past its cap afresh on every visit
// rather than falling back. Engine choice is a pure function of
// (instance, policy, repetition count), made in one place
// (Prepared.estimator), and EstimateInfo reports which engine ran.
//
// Estimators derive repetition r's RNG stream from (seed, r) with a
// SplitMix64 reseed (see rng.go) and run on one runner (RunChunks,
// which internal/dyn's scenario walks use too). The unit of work is
// not the unit of accumulation: workers claim small units of
// repetitions (8, or one lane group on the lane walk) and record each
// makespan by repetition in a window of 16 chunks; once a window is
// done, each 256-repetition chunk is folded into a streaming
// stats.Accumulator in repetition order and the chunks merge in chunk
// order. Chunk boundaries depend only on the repetition count, so
// Estimate and EstimateParallel return bit-identical summaries at
// every concurrency, even a call of 32 repetitions fans out, and
// memory stays one window (32 KiB) however many repetitions run. The
// quantile estimators fold the same windows in repetition order, so
// MakespanQuantiles' sample is exactly the one Estimate summarizes at
// any concurrency; the mass estimator reads the same repetitions in
// order.
//
// Long-lived callers (the serve daemon) use Prepared: Prepare compiles
// an oblivious schedule's prefix occurrence lists once, and
// EstimateParallelInfo replays them for any (reps, seed, concurrency)
// with results bit-identical to the corresponding cold Estimate call;
// the equivalence is pinned by TestPreparedBitIdenticalToColdPath. A
// stationary policy's context holds no table: its memo is built per
// call.
package sim
