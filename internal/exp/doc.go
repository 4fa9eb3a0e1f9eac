// Package exp contains the experiment drivers (Drivers, in
// presentation order) that regenerate every table of the empirical
// validation of each theorem of Lin & Rajaraman (SPAA 2007), plus the
// ablations. Each driver returns a Table; cmd/suu-bench renders them.
//
// The drivers are built on the scenario-grid harness in grid.go:
// every Monte Carlo cell (one instance × one solver × one trial)
// derives its seeds from its own coordinates and evaluates on a
// worker pool, so tables are bit-identical at any Workers setting and
// any GOMAXPROCS while multi-core runs cut wall-clock time.
//
// The sharding layer (shard.go) cuts a sweep into fingerprinted cell
// ranges that separate processes run and Merge reassembles, naming
// any range no envelope covers; the sweep fingerprint excludes
// Workers and every other setting that must not change results, so
// envelopes from different processes merge only if they were cut
// from the same (config, plan) pair. The hashing itself lives in
// internal/fingerprint.
//
// This package also owns the machine-readable benchmark record: the
// SimBenchFile written as BENCH_sim.json by cmd/suu-bench, whose
// per-section structs (engine gates, LP bench, exact-solver scaling,
// grid harness, serve) are documented field by field in
// docs/BENCH_SCHEMA.md. The CI gates read that file's sections, so
// its shape is a contract: field renames are schema changes. Every
// timed number in the record and in the speed gates comes from one
// sampler (timing.go), and each gate calls its section's row helper.
package exp
