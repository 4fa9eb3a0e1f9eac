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
// loop is allocation-free. It is the only loop that draws completion
// trials step by step, the only one that accumulates per-job mass
// (Runner.Mass, MassWithinHorizon), and the reference every other
// engine is pinned to. When the policy is a *sched.Oblivious, the
// estimators compile its prefix once into per-job run tables and
// replay repetitions event-wise (see oblivious.go), falling back to
// the step engine for any repetition that outlives the prefix;
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
// (Prepared.estimator), and EstimateParallelInfo reports which engine
// ran.
//
// The step engine also runs dynamic scenarios. Given a Timeline
// (NewTimelineRunner; internal/dyn compiles the timelines and supplies
// the policies), jobs arrive, machines go down, and hidden regimes
// scale p_ij while a machine is bad, drawing geometric sojourns from a
// second stream so a regime never shifts the completion draws; the
// policy sees arrivals, up machines and epochs in its sched.State.
// When the policy is a *sched.Oblivious with a prefix, the loop jumps
// from a step that trials no job to the end of its run of identical
// steps, which the schedule stores, stopping early at the next event or
// the step cap; the jump moves no draw.
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
// EstimateParallelInfo returns bit-identical summaries at every
// concurrency, even a call of 32 repetitions fans out, and memory
// stays one window (32 KiB) however many repetitions run. The quantile
// estimator folds the same windows in repetition order, so
// MakespanQuantilesParallel's sample is exactly the one
// EstimateParallelInfo summarizes at any concurrency. The mass
// estimator, MassWithinHorizon, runs the generic step engine on one
// goroutine over streams (seed^massSeedSalt, r), whatever the policy.
//
// Every makespan estimate starts from Prepare, which compiles an
// oblivious schedule's run tables once. A one-shot call
// (EstimateParallelInfo, EstimateInfoLanes, MakespanQuantilesParallel)
// prepares a fresh context and walks it; long-lived callers (the serve
// daemon) keep the Prepared value and replay its tables for any
// (reps, seed, concurrency) with results bit-identical to the
// corresponding one-shot call, pinned by
// TestPreparedBitIdenticalToColdPath. A stationary policy's context
// holds no table: its memo is built per call.
//
// # Memory
//
// The compiled tables hold one entry per (job, run), so they are about
// the size of the schedule's runs, whatever σ is, and Prepare
// allocates each at exactly the size it needs, under 2% of its
// SizeBytes charge (TestPrepareAllocation). SizeBytes is a cache
// charge, not their size: it counts 20 bytes per occurrence, what one
// entry per (job, step) would take, so a cache's byte budget holds a
// fixed number of engines of a shape whatever the tables take. The
// lane workers' buffers and the makespan window come from sync.Pools
// and go back after the walk has joined every worker; no result
// aliases them, and they move no draw: every entry a walk reads is
// written by the call first (TestPooledLaneBuffersMatchFresh poisons
// them). A warm one-shot lane estimate allocates under 1% of its
// engine's charge (TestWarmOneShotLaneEstimateAllocation).
package sim
