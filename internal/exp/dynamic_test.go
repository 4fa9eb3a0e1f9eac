package exp

import (
	"strconv"
	"testing"
)

// t15 renders T15 through its driver, the path suu-bench takes.
func t15(cfg Config) *Table {
	drv, _ := DriverByID("T15")
	return drv.Table(cfg)
}

// T15's reason to exist: on at least one bursty cell the deployed
// static schedule must measurably lose to the rolling re-solver.
func TestT15ReportsAdaptivityGap(t *testing.T) {
	cfg := Config{Quick: true, Seed: 1}
	tbl := t15(cfg)
	if tbl == nil || len(tbl.Rows) == 0 {
		t.Fatal("empty T15 table")
	}
	wantRows := len(t15Spacings) * len(t15Bursts) * len(t15Strategies)
	if len(tbl.Rows) != wantRows {
		t.Fatalf("row count %d, want %d", len(tbl.Rows), wantRows)
	}
	gap := false
	for _, row := range tbl.Rows {
		if row[1] == "none" || row[4] != "oblivious" || row[6] == "—" {
			continue
		}
		ratio, err := strconv.ParseFloat(row[6], 64)
		if err != nil {
			t.Fatalf("unparseable vs-rolling ratio %q: %v", row[6], err)
		}
		if ratio > 1.001 {
			gap = true
		}
	}
	if !gap {
		t.Fatalf("no bursty cell shows an oblivious-vs-rolling gap:\n%s", tbl.Markdown())
	}
}

// The table must be bit-identical at any worker count — the property
// the shard harness (and CI's byte-compare merge job) relies on.
func TestT15WorkerInvariance(t *testing.T) {
	seq := t15(Config{Quick: true, Seed: 1, Workers: 1})
	par := t15(Config{Quick: true, Seed: 1, Workers: 4})
	if seq.Markdown() != par.Markdown() {
		t.Fatal("T15 differs between 1 and 4 workers")
	}
}

// The dynamic bench section must agree with the table's measurement
// and carry a usable gap record.
func TestDynamicBenchmarks(t *testing.T) {
	rows := DynamicBenchmarks(Config{Quick: true, Seed: 1})
	if len(rows) != len(t15Bursts) {
		t.Fatalf("row count %d, want %d", len(rows), len(t15Bursts))
	}
	gap := false
	for _, r := range rows {
		if r.Error != "" {
			t.Fatalf("bench row %s/%d errored: %s", r.Burst, r.Spacing, r.Error)
		}
		if r.Oblivious <= 0 || r.Adaptive <= 0 || r.Rolling <= 0 || r.GapVsRolling <= 0 ||
			r.ObliviousMS <= 0 || r.ObliviousStepwiseMS <= 0 || r.SkipSpeedup <= 0 {
			t.Fatalf("degenerate bench row: %+v", r)
		}
		if r.Engine != "dynamic-step" {
			t.Fatalf("bench row engine %q", r.Engine)
		}
		if r.Burst != "none" && r.GapVsRolling > 1.001 {
			gap = true
		}
	}
	if !gap {
		t.Fatalf("no bursty bench row records a gap: %+v", rows)
	}
}
