// Command suu-bench regenerates the experiment tables — the empirical
// validation of every theorem of the paper plus the ablations, one
// per entry of exp.Drivers (T1..T3, T5..T11, T13..T15, A2, A3, A5) —
// and the simulation-engine throughput record BENCH_sim.json.
//
// Usage:
//
//	suu-bench                 # run everything (minutes)
//	suu-bench -quick          # smaller sweeps (tens of seconds)
//	suu-bench -only T6,A2     # selected experiments
//	suu-bench -workers 1      # force the sequential harness
//	                          # (default 0 = one worker per CPU; the
//	                          # tables are bit-identical either way)
//	suu-bench -json BENCH_sim.json
//	                          # also benchmark the sim engine per
//	                          # workload family, per-solver
//	                          # construction cost (sparse vs dense LP
//	                          # side by side), the LP layer in
//	                          # isolation, the adaptive_engine and
//	                          # bitparallel_engine sections (scalar
//	                          # table walk vs generic, and the 64-lane
//	                          # bit-parallel engine vs scalar compiled,
//	                          # tail remainder included), and
//	                          # grid-harness throughput, and write the
//	                          # JSON perf record; CI uploads it so the
//	                          # perf trajectory accumulates per PR
//	suu-bench -lp             # benchmark ONLY the LP layer (build +
//	                          # solve per family/size, sparse revised
//	                          # simplex vs dense tableau) and print
//	                          # the comparison table; with -json the
//	                          # record holds just the lp_bench section
//	suu-bench -exact          # benchmark ONLY the exact solver (the
//	                          # layered value iteration per family,
//	                          # exhaustive-DP oracle side by side where
//	                          # feasible) and print the comparison
//	                          # table; with -json the record holds just
//	                          # the exact_solver section
//	suu-bench -serve          # run ONLY the serving-layer load harness
//	                          # (1000 concurrent clients, mixed
//	                          # repeat/fresh workload, cache-hit vs
//	                          # cold latency, coalescing counters) and
//	                          # print the summary; with -json the
//	                          # record holds just the serve section
//
// Distributed sweeps (see README "Distributed sweeps"): a shardable
// grid table (T13, T14, the T15 dynamic-scenario grid, the T10
// solver sweep, the A2/A5 ablation grids) can be cut into half-open
// cell ranges, each executed in its own process, and merged
// bit-identically:
//
//	suu-bench -grid T13 -cells 0:12 -json-cells s0.json
//	                          # run cells [0:12) of T13's plan and
//	                          # write the partial-result envelope
//	suu-bench -grid T13 -shard 1/4 -json-cells s1.json
//	                          # same, with the range computed as
//	                          # shard 1 of 4 (0-indexed, near-equal)
//	suu-bench -grid T13 -json-cells full.json
//	                          # the whole plan in one envelope
//	suu-bench -merge -json-cells out.json s0.json s1.json ...
//	                          # validate + merge shard envelopes into
//	                          # the canonical document (gaps,
//	                          # overlaps, and fingerprint mismatches
//	                          # are hard errors) and render the table
//
// The merged output is byte-identical no matter how the cells were
// sharded; the CI grid matrix proves the equality on every push.
// Figure reproductions (F1, F3) live in suu-trace.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"suu/internal/exp"
	"suu/internal/serve"
)

func main() {
	var (
		quick     = flag.Bool("quick", false, "smaller sweeps and repetition counts")
		only      = flag.String("only", "", "comma-separated experiment ids (default: all)")
		seed      = flag.Int64("seed", 1, "random seed")
		workers   = flag.Int("workers", 0, "grid-harness worker pool size (0 = GOMAXPROCS, 1 = sequential; tables are identical at any value)")
		jsonPath  = flag.String("json", "", "write engine benchmark results to this file (e.g. BENCH_sim.json)")
		lpOnly    = flag.Bool("lp", false, "benchmark the LP layer in isolation and exit (skips the experiment drivers)")
		exactOnly = flag.Bool("exact", false, "benchmark the exact solver in isolation and exit (skips the experiment drivers)")
		serveOnly = flag.Bool("serve", false, "run the serving-layer load harness in isolation and exit (skips the experiment drivers)")
		commit    = flag.String("commit", os.Getenv("GITHUB_SHA"), "commit SHA to embed in the -json perf record (defaults to $GITHUB_SHA)")

		gridID    = flag.String("grid", "", "run one shardable grid table (T13, T14, T15, T10, A2, A5) through the cell-range path")
		cellsFlag = flag.String("cells", "", "with -grid: half-open cell range a:b to execute (default: all cells)")
		shardFlag = flag.String("shard", "", "with -grid: execute shard k/N (0-indexed) of the plan's cells")
		jsonCells = flag.String("json-cells", "", "with -grid/-merge: write the shard envelope / merged document here")
		merge     = flag.Bool("merge", false, "merge the shard envelopes given as arguments into the canonical document")
	)
	flag.Parse()
	cfg := exp.Config{Quick: *quick, Seed: *seed, Workers: *workers}

	if *merge || *gridID != "" {
		if *jsonPath != "" {
			log.Fatal("-json is the BENCH_sim.json perf record and does not apply to -grid/-merge; use -json-cells for the envelope/merged document")
		}
	}
	if *merge {
		runMerge(*jsonCells, flag.Args())
		return
	}
	if *gridID != "" {
		runGridRange(cfg, *gridID, *cellsFlag, *shardFlag, *jsonCells)
		return
	}
	if *cellsFlag != "" || *shardFlag != "" || *jsonCells != "" {
		log.Fatal("-cells/-shard/-json-cells need -grid (or -merge for -json-cells)")
	}

	exclusive := 0
	for _, f := range []bool{*lpOnly, *exactOnly, *serveOnly} {
		if f {
			exclusive++
		}
	}
	if exclusive > 1 {
		log.Fatal("-lp, -exact and -serve are mutually exclusive")
	}
	if *serveOnly {
		start := time.Now()
		b := serve.Benchmark(cfg)
		fmt.Printf("serve storm: %d clients, %d requests in %.0fms (%.0f req/s)\n",
			b.Clients, b.Requests, b.WallMS, b.RequestsPerSec)
		fmt.Printf("  cold solve p50 %.3fms p99 %.3fms | cache-hit p50 %.4fms p99 %.4fms | speedup %.0fx\n",
			b.ColdP50MS, b.ColdP99MS, b.HitP50MS, b.HitP99MS, b.SpeedupP50)
		fmt.Printf("  hit rate %.2f | %d hits, %d misses, %d coalesced, %d evictions | %d errors\n",
			b.HitRate, b.Hits, b.Misses, b.Coalesced, b.Evictions, b.Errors)
		fmt.Printf("_serve load harness completed in %.1fs_\n", time.Since(start).Seconds())
		if *jsonPath != "" {
			file := exp.NewSimBenchFile(cfg)
			file.Serve = b
			writeRecord(*jsonPath, *commit, file)
		}
		return
	}
	if *exactOnly {
		start := time.Now()
		rows := exp.ExactSolverBenchmarks(cfg)
		fmt.Println(exp.ExactSolverTable(rows).Markdown())
		fmt.Printf("_exact-solver benchmarks completed in %.1fs_\n", time.Since(start).Seconds())
		if *jsonPath != "" {
			file := exp.NewSimBenchFile(cfg)
			file.ExactSolver = rows
			writeRecord(*jsonPath, *commit, file)
		}
		return
	}

	if *lpOnly {
		start := time.Now()
		rows := exp.LPBenchmarks(cfg)
		fmt.Println(exp.LPBenchTable(rows).Markdown())
		fmt.Printf("_LP benchmarks completed in %.1fs_\n", time.Since(start).Seconds())
		if *jsonPath != "" {
			file := exp.NewSimBenchFile(cfg)
			file.LPBench = rows
			writeRecord(*jsonPath, *commit, file)
		}
		return
	}

	ids := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			ids[strings.TrimSpace(id)] = true
		}
	}

	fmt.Printf("# SUU experiment run (%s, quick=%v, seed=%d)\n\n",
		time.Now().Format("2006-01-02"), *quick, *seed)
	ran := 0
	for _, drv := range exp.Drivers {
		if len(ids) > 0 && !ids[drv.ID] {
			continue
		}
		start := time.Now()
		table := drv.Run(cfg)
		fmt.Println(table.Markdown())
		fmt.Printf("_%s completed in %.1fs_\n\n", drv.ID, time.Since(start).Seconds())
		ran++
	}
	if ran == 0 && *only != "" {
		log.Fatalf("no experiment matched -only=%q", *only)
	}

	if *jsonPath != "" {
		start := time.Now()
		file := exp.SimBenchmarks(cfg)
		// The serve section is filled here rather than inside
		// exp.SimBenchmarks: that layer lives above exp, so its
		// benchmark does too.
		file.Serve = serve.Benchmark(cfg)
		writeRecord(*jsonPath, *commit, file)
		fmt.Printf("_engine benchmarks (%d families) written to %s in %.1fs_\n",
			len(file.Benchmarks), *jsonPath, time.Since(start).Seconds())
	}
}

// writeRecord stamps the perf record with the commit, writes it to
// path, and warns on stderr about every benchmark family it skipped.
func writeRecord(path, commit string, file exp.SimBenchFile) {
	file.Commit = commit
	out, err := exp.WriteSimBenchJSON(file)
	if err != nil {
		log.Fatalf("marshal the perf record: %v", err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		log.Fatalf("write %s: %v", path, err)
	}
	for _, s := range file.Skipped {
		fmt.Fprintf(os.Stderr, "warning: benchmark family skipped: %s\n", s)
	}
}

// runGridRange executes a cell range of one shardable grid table and
// writes the partial-result envelope.
func runGridRange(cfg exp.Config, gridID, cellsFlag, shardFlag, jsonCells string) {
	g, ok := exp.GridDriverByID(gridID)
	if !ok {
		log.Fatalf("unknown grid table %q: shardable tables are %s", gridID, exp.GridDriverIDs())
	}
	plan := g.Plan(cfg)
	total := plan.NumCells()
	r := exp.CellRange{Lo: 0, Hi: total}
	var err error
	switch {
	case cellsFlag != "" && shardFlag != "":
		log.Fatal("-cells and -shard are mutually exclusive")
	case cellsFlag != "":
		r, err = exp.ParseCellRange(cellsFlag, total)
	case shardFlag != "":
		r, err = exp.ParseShard(shardFlag, total)
	}
	if err != nil {
		log.Fatal(err)
	}
	if r.Len() != total && jsonCells == "" {
		// A partial range exists only to feed a merge; without an
		// envelope destination the cells would be computed and thrown
		// away.
		log.Fatal("-cells/-shard runs a partial range: add -json-cells to keep the shard envelope")
	}
	start := time.Now()
	shard := exp.RunShard(cfg, exp.ShardSpec{Plan: plan, Range: r})
	if jsonCells != "" {
		data, err := exp.EncodeShardFile(shard)
		if err != nil {
			log.Fatalf("encode shard: %v", err)
		}
		if err := os.WriteFile(jsonCells, data, 0o644); err != nil {
			log.Fatalf("write %s: %v", jsonCells, err)
		}
	}
	if r.Len() == total {
		// A full-range run is just the sequential table with a receipt.
		results := exp.ShardResults([]*exp.ShardFile{shard})
		fmt.Println(g.Render(cfg, results).Markdown())
	}
	fmt.Printf("_%s cells [%s) of %d (fingerprint %s) completed in %.1fs_\n",
		plan.ID, r, total, shard.Fingerprint, time.Since(start).Seconds())
}

// runMerge validates and merges shard envelopes into the canonical
// document, rendering the table when the plan is a known grid table.
func runMerge(jsonCells string, paths []string) {
	if len(paths) == 0 {
		log.Fatal("-merge needs shard files as arguments")
	}
	var shards []*exp.ShardFile
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			log.Fatal(err)
		}
		f, err := exp.DecodeShardFile(data)
		if err != nil {
			log.Fatalf("%s: %v", p, err)
		}
		shards = append(shards, f)
	}
	m, err := exp.Merge(shards)
	if err != nil {
		log.Fatalf("merge of %d shards failed: %v", len(shards), err)
	}
	out, err := m.JSON()
	if err != nil {
		log.Fatal(err)
	}
	if jsonCells == "" {
		// No output file: the canonical document IS the stdout payload.
		os.Stdout.Write(out)
		return
	}
	if err := os.WriteFile(jsonCells, out, 0o644); err != nil {
		log.Fatalf("write %s: %v", jsonCells, err)
	}
	// Render the table only when this binary's plan is the one the
	// envelopes were cut from: after plan drift (a point added or
	// removed in a newer binary) the merged document is still valid,
	// but rendering it against the re-derived plan would mis-group or
	// slice out of bounds.
	if g, ok := exp.GridDriverByID(m.Plan); ok {
		cfg := exp.Config{Quick: m.Quick, Seed: m.Seed}
		if fp := exp.Fingerprint(cfg, g.Plan(cfg)); fp == m.Fingerprint {
			fmt.Println(g.Render(cfg, exp.ShardResults(shards)).Markdown())
		} else {
			fmt.Fprintf(os.Stderr, "note: %s plan in this binary (fingerprint %s) differs from the envelopes' (%s); merged document written, table rendering skipped\n",
				m.Plan, fp, m.Fingerprint)
		}
	}
	fmt.Printf("_merged %d shards (%d cells, plan %s, fingerprint %s) into %s_\n",
		len(shards), m.TotalCells, m.Plan, m.Fingerprint, jsonCells)
}
