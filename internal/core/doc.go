// Package core implements the approximation algorithms of Lin &
// Rajaraman, "Approximation Algorithms for Multiprocessor Scheduling
// under Uncertainty" (SPAA 2007):
//
//   - MSM-ALG and MSM-E-ALG, the greedy 1/3-approximations for the
//     MaxSumMass subproblems (Section 3.1, Figure 2; Lemma 3.4);
//   - SUU-I-ALG, the adaptive O(log n)-approximation for independent
//     jobs (Theorem 3.3);
//   - SUU-I-OBL, the oblivious O(log² n)-approximation (Theorem 3.6);
//   - the (LP1)/(LP2) relaxations for AccuMass-C, their rounding via
//     bucketing and integral max flow (Theorem 4.1), pseudo-schedule
//     construction, random-delay conversion and replication, yielding
//     the chains algorithm (Theorem 4.4), the LP-based independent-jobs
//     algorithm (Theorem 4.5) and the tree/forest algorithms
//     (Theorems 4.7 and 4.8);
//   - the forest pipeline's two stages per decomposition block: the LP
//     stage stays sequential in block order on the calling goroutine,
//     since each block's crash basis (LPWarm) depends on the blocks
//     solved before it; the finish stage (rounding, pseudo-schedule,
//     delays, flattening, replication) of each block runs on one extra
//     goroutine while the next block's LP solves, so a forest build
//     may use one goroutine besides its caller's. Results are
//     bit-identical to the sequential loop at any GOMAXPROCS;
//   - one count packer behind every prefix built from step counts:
//     SUU-I-OBL's MSM-E-ALG rounds (ScheduleFromCounts), the LP packing
//     (PackSequential) and the chain windows of a pseudo-schedule
//     (BuildPseudo) sweep the boundaries where a machine's work or
//     window ends and emit one run per segment between them;
//   - baseline policies used by the experiment harness.
//
// Construction entry points take a Params (seeds, LP knobs, mass
// targets). Params.WarmBasis optionally carries an exported simplex
// basis from an earlier solve of the same instance: the direct (LP2)
// path re-solves from it pivot-free at the same vertex, with the
// objective equal to the cold value up to roundoff and the rounding
// and schedule unchanged (pinned by warmbasis_test.go). The basis is
// runtime-only — never serialized — and is ignored by the dense
// oracle and the lazy LP1 pipelines, whose bases span cut rows.
package core
