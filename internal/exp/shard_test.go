package exp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func TestShardRangesTile(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{10, 3}, {3, 4}, {0, 2}, {7, 1}, {16, 16}, {5, 8},
	} {
		rs := ShardRanges(tc.n, tc.k)
		if len(rs) != tc.k {
			t.Fatalf("ShardRanges(%d,%d): %d ranges", tc.n, tc.k, len(rs))
		}
		next := 0
		for _, r := range rs {
			if r.Lo != next || r.Hi < r.Lo {
				t.Fatalf("ShardRanges(%d,%d): bad tiling at %v", tc.n, tc.k, r)
			}
			next = r.Hi
		}
		if next != tc.n {
			t.Fatalf("ShardRanges(%d,%d): covers [0:%d), want [0:%d)", tc.n, tc.k, next, tc.n)
		}
		// Near-equal: sizes differ by at most one.
		min, max := tc.n, 0
		for _, r := range rs {
			if r.Len() < min {
				min = r.Len()
			}
			if r.Len() > max {
				max = r.Len()
			}
		}
		if max-min > 1 {
			t.Errorf("ShardRanges(%d,%d): shard sizes span %d..%d", tc.n, tc.k, min, max)
		}
	}
}

// TestParseShardMatchesShardRanges: ParseShard computes the k-th
// range on its own, so it must agree with the full partition it used
// to index, and a huge N must answer without building N ranges.
func TestParseShardMatchesShardRanges(t *testing.T) {
	for total := 0; total <= 40; total++ {
		for n := 1; n <= 12; n++ {
			rs := ShardRanges(total, n)
			for k := 0; k < n; k++ {
				r, err := ParseShard(fmt.Sprintf("%d/%d", k, n), total)
				if err != nil || r != rs[k] {
					t.Fatalf("ParseShard(%d/%d, %d) = %v, %v; want %v", k, n, total, r, err, rs[k])
				}
			}
		}
	}
	const huge = 1 << 40
	for k, want := range map[int]CellRange{0: {0, 1}, 9: {9, 10}, 10: {10, 10}, huge - 1: {10, 10}} {
		if r, err := ParseShard(fmt.Sprintf("%d/%d", k, huge), 10); err != nil || r != want {
			t.Errorf("ParseShard(%d/2^40, 10) = %v, %v; want %v", k, r, err, want)
		}
	}
}

func TestParseCellRangeAndShard(t *testing.T) {
	for _, tc := range []struct {
		s      string
		lo, hi int
	}{
		{"0:5", 0, 5}, {"2:7", 2, 7}, {":4", 0, 4}, {"3:", 3, 10}, {":", 0, 10},
	} {
		r, err := ParseCellRange(tc.s, 10)
		if err != nil || r.Lo != tc.lo || r.Hi != tc.hi {
			t.Errorf("ParseCellRange(%q) = %v, %v; want [%d:%d)", tc.s, r, err, tc.lo, tc.hi)
		}
	}
	for _, bad := range []string{"5:2", "-1:3", "0:11", "abc", "1", "x:y"} {
		if _, err := ParseCellRange(bad, 10); err == nil {
			t.Errorf("ParseCellRange(%q) accepted", bad)
		}
	}
	if r, err := ParseShard("1/3", 10); err != nil || (r != CellRange{Lo: 4, Hi: 7}) {
		t.Errorf("ParseShard(1/3, 10) = %v, %v; want [4:7)", r, err)
	}
	for _, bad := range []string{"3/3", "-1/3", "0/0", "1", "a/b"} {
		if _, err := ParseShard(bad, 10); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
}

// shardTestPlan is a small cheap plan for merge-layer tests: two
// specs with different solver sets, 12 cells total, tiny instances.
func shardTestPlan() GridPlan {
	return GridPlan{ID: "shard-test", Specs: []GridSpec{
		{
			Points:  []GridPoint{{Scenario: "independent", Jobs: 6, Machines: 2}},
			Solvers: []string{"lp-oblivious", "greedy-maxp"},
			Trials:  3,
		},
		{
			Points:  []GridPoint{{Scenario: "chains", Jobs: 6, Machines: 2, Arg: 2}},
			Solvers: []string{"chains", "round-robin"},
			Trials:  3,
		},
	}}
}

func shardTestConfig() Config { return Config{Quick: true, Seed: 5, Workers: 1} }

// runMerged runs the full plan in-process and canonicalizes it
// through the same projection Merge applies — the byte-compare
// baseline for any sharded run of the same (cfg, plan).
func runMerged(t *testing.T, cfg Config, p GridPlan) *MergedGrid {
	t.Helper()
	m, err := Merge([]*ShardFile{RunShard(cfg, ShardSpec{Plan: p, Range: CellRange{Lo: 0, Hi: p.NumCells()}})})
	if err != nil {
		// A single full-range shard always tiles.
		t.Fatal(err)
	}
	return m
}

// runShards cuts the plan into the given ranges and runs each as its
// own shard envelope.
func runShards(cfg Config, p GridPlan, rs []CellRange) []*ShardFile {
	out := make([]*ShardFile, len(rs))
	for i, r := range rs {
		out[i] = RunShard(cfg, ShardSpec{Plan: p, Range: r})
	}
	return out
}

// TestMergeShuffledShardOrder: shard files may arrive in any order;
// Merge sorts by range and still produces the canonical bytes.
func TestMergeShuffledShardOrder(t *testing.T) {
	cfg, plan := shardTestConfig(), shardTestPlan()
	want, err := runMerged(t, cfg, plan).JSON()
	if err != nil {
		t.Fatal(err)
	}
	shards := runShards(cfg, plan, ShardRanges(plan.NumCells(), 4))
	shuffled := []*ShardFile{shards[2], shards[0], shards[3], shards[1]}
	m, err := Merge(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("shuffled-order merge differs from sequential canonical output")
	}
}

// TestMergeRejectsOverlap: two shards covering the same cells is a
// row-computed-twice hazard, not a tolerable redundancy.
func TestMergeRejectsOverlap(t *testing.T) {
	cfg, plan := shardTestConfig(), shardTestPlan()
	n := plan.NumCells()
	shards := runShards(cfg, plan, []CellRange{{0, 8}, {6, n}})
	if _, err := Merge(shards); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("overlapping shards: err = %v, want overlap report", err)
	}
}

// TestMergeRejectsDuplicateCell: a shard whose payload repeats a cell
// index (a buggy or malicious producer) must fail the index check.
func TestMergeRejectsDuplicateCell(t *testing.T) {
	cfg, plan := shardTestConfig(), shardTestPlan()
	shards := runShards(cfg, plan, ShardRanges(plan.NumCells(), 2))
	shards[0].Cells[2] = shards[0].Cells[1] // duplicate index, still right count
	if _, err := Merge(shards); err == nil || !strings.Contains(err.Error(), "index") {
		t.Errorf("duplicated cell: err = %v, want index mismatch", err)
	}
	// A shard delivering the wrong number of rows for its range is
	// caught before the index walk.
	shards = runShards(cfg, plan, ShardRanges(plan.NumCells(), 2))
	shards[1].Cells = append(shards[1].Cells, shards[1].Cells[0])
	if _, err := Merge(shards); err == nil || !strings.Contains(err.Error(), "rows") {
		t.Errorf("extra row: err = %v, want row-count mismatch", err)
	}
}

// TestMergeAcceptsEmptyShards: zero-length ranges are legal anywhere
// in the tiling — mid-plan (an explicit a:a range) and at the tail
// (an N-way split of fewer-than-N cells) — but an empty range
// claiming rows is not.
func TestMergeAcceptsEmptyShards(t *testing.T) {
	cfg, plan := shardTestConfig(), shardTestPlan()
	n := plan.NumCells()
	want, err := runMerged(t, cfg, plan).JSON()
	if err != nil {
		t.Fatal(err)
	}
	shards := runShards(cfg, plan, []CellRange{{0, 5}, {5, 5}, {5, n}, {n, n}})
	m, err := Merge(shards)
	if err != nil {
		t.Fatalf("empty shards rejected: %v", err)
	}
	got, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("merge with empty shards differs from sequential canonical output")
	}
	bad := runShards(cfg, plan, []CellRange{{0, 5}, {5, 5}, {5, n}})
	bad[1].Cells = bad[0].Cells[:1]
	if _, err := Merge(bad); err == nil || !strings.Contains(err.Error(), "rows") {
		t.Errorf("empty range carrying rows: err = %v, want row-count mismatch", err)
	}
}

// TestMergeRejectsMissingRange: a lost worker must read as "missing
// cells", both in the middle and at the tail.
func TestMergeRejectsMissingRange(t *testing.T) {
	cfg, plan := shardTestConfig(), shardTestPlan()
	shards := runShards(cfg, plan, ShardRanges(plan.NumCells(), 3))
	if _, err := Merge([]*ShardFile{shards[0], shards[2]}); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("middle gap: err = %v, want missing range", err)
	}
	if _, err := Merge(shards[:2]); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("missing tail: err = %v, want missing range", err)
	}
	if _, err := Merge(nil); err == nil {
		t.Error("zero shards merged")
	}
}

// TestMergeRejectsFingerprintMismatch: shards cut from a different
// seed, sizing, or plan must not splice.
func TestMergeRejectsFingerprintMismatch(t *testing.T) {
	cfg, plan := shardTestConfig(), shardTestPlan()
	n := plan.NumCells()
	a := RunShard(cfg, ShardSpec{Plan: plan, Range: CellRange{0, 6}})
	otherSeed := cfg
	otherSeed.Seed = 6
	b := RunShard(otherSeed, ShardSpec{Plan: plan, Range: CellRange{6, n}})
	if _, err := Merge([]*ShardFile{a, b}); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("seed mismatch: err = %v, want fingerprint mismatch", err)
	}
	// Same config, structurally different plan.
	other := shardTestPlan()
	other.Specs[1].Solvers = []string{"chains"}
	c := RunShard(cfg, ShardSpec{Plan: other, Range: CellRange{6, other.NumCells()}})
	if _, err := Merge([]*ShardFile{a, c}); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("plan mismatch: err = %v, want fingerprint mismatch", err)
	}
	// Foreign schema version.
	d := RunShard(cfg, ShardSpec{Plan: plan, Range: CellRange{6, n}})
	d.SchemaVersion = ShardSchemaVersion + 1
	if _, err := Merge([]*ShardFile{a, d}); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("schema mismatch: err = %v, want schema report", err)
	}
}

// TestShardEnvelopeRoundTrips: encode → decode is lossless, and the
// decoder rejects foreign documents instead of zero-filling them.
func TestShardEnvelopeRoundTrips(t *testing.T) {
	cfg, plan := shardTestConfig(), shardTestPlan()
	f := RunShard(cfg, ShardSpec{Plan: plan, Range: CellRange{0, 6}})
	data, err := EncodeShardFile(f)
	if err != nil {
		t.Fatal(err)
	}
	g, err := DecodeShardFile(data)
	if err != nil {
		t.Fatal(err)
	}
	if g.Fingerprint != f.Fingerprint || g.Range != f.Range || len(g.Cells) != len(f.Cells) {
		t.Errorf("round trip lost fields: %+v vs %+v", g, f)
	}
	if g.Cells[3] != f.Cells[3] {
		t.Errorf("cell round trip: %+v vs %+v", g.Cells[3], f.Cells[3])
	}
	if _, err := DecodeShardFile([]byte(`{"schema_version":1,"surprise":true}`)); err == nil {
		t.Error("decoder accepted unknown fields")
	}
	if _, err := DecodeShardFile([]byte(`not json`)); err == nil {
		t.Error("decoder accepted garbage")
	}
	if _, err := DecodeShardFile(append(data, " \n\t\n"...)); err != nil {
		t.Errorf("decoder rejected trailing whitespace: %v", err)
	}
	if _, err := DecodeShardFile(append(data, "]"...)); err == nil {
		t.Error("decoder accepted a stray bracket after the envelope")
	}
}

// TestDecodeRejectsConcatenatedEnvelopes: two envelopes in one input
// (cat a.json b.json) are an error, not the first envelope alone.
func TestDecodeRejectsConcatenatedEnvelopes(t *testing.T) {
	cfg, plan := shardTestConfig(), shardTestPlan()
	shards := runShards(cfg, plan, ShardRanges(plan.NumCells(), 2))
	var data []byte
	for _, s := range shards {
		env, err := EncodeShardFile(s)
		if err != nil {
			t.Fatal(err)
		}
		data = append(data, env...)
	}
	if f, err := DecodeShardFile(data); err == nil {
		t.Fatalf("decoder accepted two concatenated envelopes as one covering %v", f.Range)
	} else if !strings.Contains(err.Error(), "after the envelope") {
		t.Errorf("concatenated envelopes: error %q does not say what follows the envelope", err)
	}
}

// TestSingleCellRangeMatchesFullRun is the hermeticity assertion the
// tentpole rests on: executing any one cell in isolation (the extreme
// shard) reproduces the full run's value for that index, so the
// sim-layer seed plumbing is untouched by sharding — by construction,
// not by luck.
func TestSingleCellRangeMatchesFullRun(t *testing.T) {
	cfg, plan := shardTestConfig(), shardTestPlan()
	full := stripGridTimings(RunPlan(cfg, plan))
	for _, i := range []int{0, 3, 7, len(full) - 1} {
		got := stripGridTimings(RunPlanRange(cfg, plan, CellRange{Lo: i, Hi: i + 1}))
		if len(got) != 1 {
			t.Fatalf("range [%d:%d) returned %d results", i, i+1, len(got))
		}
		if fmt.Sprintf("%+v", got[0]) != fmt.Sprintf("%+v", full[i]) {
			t.Errorf("cell %d differs in isolation:\nfull:  %+v\nrange: %+v", i, full[i], got[0])
		}
	}
}

// requireShardedBytesIdentical runs the plan sharded N ways in-process
// and requires the merged JSON to equal the sequential canonical
// bytes.
func requireShardedBytesIdentical(t *testing.T, cfg Config, plan GridPlan, want []byte, n int) {
	t.Helper()
	shards := runShards(cfg, plan, ShardRanges(plan.NumCells(), n))
	m, err := Merge(shards)
	if err != nil {
		t.Fatalf("%s sharded %d ways: %v", plan.ID, n, err)
	}
	got, err := m.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: merge of %d shards is not byte-identical to the sequential run", plan.ID, n)
	}
}

// TestShardMergeByteIdenticalAllGridDrivers is the acceptance bar:
// for every shardable table — T13, T14, the T10 solver sweep, and the
// A2/A5 ablation grids (override- and custom-evaluator cells
// included) — merging N ∈ {2, 3, 8} shard outputs reproduces the
// single-process canonical JSON byte for byte. N=8 on T14's 3 cells
// additionally exercises empty shards. The CI shard→merge job
// enforces the same equality across real OS processes.
func TestShardMergeByteIdenticalAllGridDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping Monte Carlo shard/merge sweep in -short mode")
	}
	cfg := Config{Quick: true, Seed: 7}
	for _, g := range GridDrivers {
		plan := g.Plan(cfg)
		want, err := runMerged(t, cfg, plan).JSON()
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{2, 3, 8} {
			requireShardedBytesIdentical(t, cfg, plan, want, n)
		}
		// The rendered table from merged results matches the sequential
		// driver's, timing columns masked (they measure the producing
		// process).
		m, err := Merge(runShards(cfg, plan, ShardRanges(plan.NumCells(), 3)))
		if err != nil {
			t.Fatal(err)
		}
		fromMerged := g.Render(cfg, m.Results())
		direct := g.Render(cfg, RunPlan(cfg, plan))
		maskTimingColumns(fromMerged)
		maskTimingColumns(direct)
		if fromMerged.Markdown() != direct.Markdown() {
			t.Errorf("%s: table rendered from merged shards differs:\n--- merged\n%s\n--- direct\n%s",
				g.ID, fromMerged.Markdown(), direct.Markdown())
		}
	}
}

// TestPlanWrapsSingleSpec: any bare GridSpec becomes a shardable plan
// via Plan — the ad-hoc entry point for sweeps that are a plain cross
// product.
func TestPlanWrapsSingleSpec(t *testing.T) {
	spec := GridSpec{
		Points:  []GridPoint{{Scenario: "independent", Jobs: 4, Machines: 2}},
		Solvers: []string{"greedy-maxp", "round-robin"},
		Trials:  2,
	}
	p := Plan("adhoc", spec)
	if p.ID != "adhoc" || p.NumCells() != 4 || len(p.Cells()) != 4 {
		t.Fatalf("Plan wrap: id %q, %d cells (len %d), want adhoc/4/4", p.ID, p.NumCells(), len(p.Cells()))
	}
	cfg := shardTestConfig()
	want, err := runMerged(t, cfg, p).JSON()
	if err != nil {
		t.Fatal(err)
	}
	requireShardedBytesIdentical(t, cfg, p, want, 2)
}

// TestFingerprintSensitivity: the fingerprint must move with anything
// that changes cell values, and must NOT move with worker count.
func TestFingerprintSensitivity(t *testing.T) {
	cfg, plan := shardTestConfig(), shardTestPlan()
	base := Fingerprint(cfg, plan)
	pool := cfg
	pool.Workers = 8
	if Fingerprint(pool, plan) != base {
		t.Error("fingerprint depends on worker count")
	}
	seed := cfg
	seed.Seed++
	if Fingerprint(seed, plan) == base {
		t.Error("fingerprint blind to seed")
	}
	quick := cfg
	quick.Quick = false
	if Fingerprint(quick, plan) == base {
		t.Error("fingerprint blind to Quick sizing")
	}
	other := shardTestPlan()
	other.Specs[0].Trials = 4
	if Fingerprint(cfg, other) == base {
		t.Error("fingerprint blind to spec shape")
	}
}

// TestEnvelopeChecksumDetectsCorruption is the corruption contract:
// RunShard seals the payload, decode verifies it, and a flipped bit in
// the payload region fails decode with a checksum error.
func TestEnvelopeChecksumDetectsCorruption(t *testing.T) {
	cfg, plan := shardTestConfig(), shardTestPlan()
	f := RunShard(cfg, ShardSpec{Plan: plan, Range: CellRange{0, 6}})
	if f.PayloadSHA256 == "" {
		t.Fatal("RunShard left the envelope unsealed")
	}
	if err := f.VerifyPayload(); err != nil {
		t.Fatalf("fresh envelope fails verification: %v", err)
	}
	data, err := EncodeShardFile(f)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one digit inside the payload (a mean value), keeping the
	// JSON valid so only the checksum can catch it.
	i := bytes.Index(data, []byte(`"mean": `))
	if i < 0 {
		t.Fatal("no mean field in envelope")
	}
	corrupt := append([]byte(nil), data...)
	j := i + len(`"mean": `)
	if corrupt[j] == '9' {
		corrupt[j] = '8'
	} else {
		corrupt[j] = '9'
	}
	if _, err = DecodeShardFile(corrupt); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt envelope decoded: err = %v, want checksum fault", err)
	}
	// Timings are provenance, not payload: a damaged wall-clock must
	// NOT fail the checksum (merged bytes are unaffected by it).
	g := *f
	g.WallMS = f.WallMS + 1000
	if err := g.VerifyPayload(); err != nil {
		t.Errorf("timing damage failed the payload checksum: %v", err)
	}
}
