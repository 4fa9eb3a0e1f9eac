// Package dyn layers deterministic dynamics over a static SUU
// instance: job arrivals (a job is invisible and ineligible before its
// release step), machine breakdown/recovery intervals (assignments to
// a down machine are ignored), and a hidden per-machine good/bad
// Markov regime that scales p_ij while the machine is in its bad
// state — the time-correlated failure-burst model, parameterized the
// way two-regime mixture error models are (stationary bad fraction
// and persistence).
//
// A Scenario is the static model.Instance plus that event timeline,
// which it compiles into a sim.Timeline. Strategies walk it: Static
// replays any fixed policy obliviously to the dynamics, Adaptive reruns
// the masked MSM greedy on the eligible jobs and up machines each step,
// and Rolling re-invokes a registry solver on the surviving
// sub-instance at every event epoch (reusing the initial solve's
// exported LP basis as the warm-start donor via core.Params.WarmBasis).
// Each strategy hands every worker a plain sched.Policy, and the walk
// is sim's generic step engine following the timeline
// (sim.NewTimelineRunner): the policy reads arrivals, up machines and
// epochs from its sched.State, and an outcome-observing policy observes
// every step, as it does on the static engine.
//
// Estimation runs on internal/sim's chunk runner (sim.RunChunks):
// workers claim one repetition at a time, so even a 32-repetition
// estimate fans out; repetition r draws its completion stream from
// (seed, r) and its regime sojourns from (SeedFor(seed, "regime"), r);
// makespans fold into chunks in repetition order and chunks merge in
// index order; and rolling re-solves are cached per (surviving jobs,
// up machines) key, in one cache all of a strategy's walkers share,
// with key-derived construction seeds — so every summary is
// bit-identical at any worker count and under any shard tiling. A
// scenario with no events delegates to the static engines (compiled
// and lane paths included) and is therefore bit-identical to the
// static pipeline by construction.
//
// A regime does not draw per step. Each regime machine draws how many
// transitions it stays in its state, a geometric sojourn (one uniform
// and one logarithm), and flips when that transition comes: every
// machine starts good, the transition before step 0 may flip it, and
// flips due at one transition apply in machine order.
//
// The walk executes every step, except where Static replays a
// *sched.Oblivious: the schedule stores its prefix as runs of
// identical steps (Replicate makes runs of σ), and after a step that
// trials no job the engine jumps to the end of the run, stopping early
// at the next event or the step cap. A skipped step would have drawn no completion
// uniform, and the flips inside the jump are applied in the order a
// step-by-step walk applies them, so the jump moves no draw.
//
// ExactMakespan is the oracle: it propagates probability mass over
// (unfinished set, regime vector) one step at a time and returns the
// exact expected capped makespan of a static or adaptive strategy. The
// unfinished sets are the closed sets of dag.Lattice, and up to 2^20
// states fit: chains 20×4 with three regime machines has 1,296 closed
// sets. It is also the exact evaluator of fixed oblivious schedules on
// the static problem (the event-free scenario New(in)).
package dyn
