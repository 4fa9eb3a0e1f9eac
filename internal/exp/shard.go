package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"suu/internal/fingerprint"
)

// This file is the process-sharding layer over the scenario-grid
// harness: any named grid plan can be enumerated, sliced into
// half-open cell ranges, executed as index-tagged partial results in
// separate OS processes, and merged back into the exact sequential
// output. The contract that makes this sound is the one grid.go
// already enforces — every cell derives all randomness from its own
// coordinates — so a shard boundary can never change a value, only
// which process computes it. cmd/suu-bench exposes the range/merge
// modes; CI proves the loop by byte-comparing a 4-shard matrix merge
// against the single-process run.

// ShardSchemaVersion versions the shard envelope. Merge refuses to
// mix versions: it must never splice rows produced under a different
// payload contract. Version 2 added the engine and prefix_len payload
// columns (and cells may carry param overrides and custom
// evaluators). Version 3 added the per-envelope payload checksum,
// which lets decode detect corruption in transit instead of trusting
// whatever bytes arrive.
const ShardSchemaVersion = 3

// CellRange is a half-open slice [Lo:Hi) of a plan's Cells() order.
type CellRange struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len returns the number of cells in the range.
func (r CellRange) Len() int { return r.Hi - r.Lo }

func (r CellRange) String() string { return fmt.Sprintf("%d:%d", r.Lo, r.Hi) }

// ParseCellRange parses "a:b" (half-open, 0-indexed) against a plan
// of total cells. Either bound may be omitted: ":b" starts at 0,
// "a:" ends at total.
func ParseCellRange(s string, total int) (CellRange, error) {
	lo, hi := 0, total
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return CellRange{}, fmt.Errorf("exp: cell range %q: want a:b", s)
	}
	var err error
	if a := s[:i]; a != "" {
		if lo, err = strconv.Atoi(a); err != nil {
			return CellRange{}, fmt.Errorf("exp: cell range %q: %v", s, err)
		}
	}
	if b := s[i+1:]; b != "" {
		if hi, err = strconv.Atoi(b); err != nil {
			return CellRange{}, fmt.Errorf("exp: cell range %q: %v", s, err)
		}
	}
	if lo < 0 || hi > total || lo > hi {
		return CellRange{}, fmt.Errorf("exp: cell range %q out of bounds for %d cells", s, total)
	}
	return CellRange{Lo: lo, Hi: hi}, nil
}

// ParseShard parses "k/N" (0-indexed shard k of N) and returns the
// k-th of ShardRanges(total, N).
func ParseShard(s string, total int) (CellRange, error) {
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return CellRange{}, fmt.Errorf("exp: shard %q: want k/N", s)
	}
	k, err1 := strconv.Atoi(s[:i])
	n, err2 := strconv.Atoi(s[i+1:])
	if err1 != nil || err2 != nil || n < 1 || k < 0 || k >= n {
		return CellRange{}, fmt.Errorf("exp: shard %q: want k/N with 0 <= k < N", s)
	}
	return shardRange(total, n, k), nil
}

// ShardRanges partitions [0:n) into k contiguous near-equal ranges
// (sizes differ by at most one, larger shards first). k may exceed n;
// the tail ranges are then empty, which Merge accepts — a 4-shard CI
// matrix over a 3-cell plan is legal.
func ShardRanges(n, k int) []CellRange {
	if k < 1 {
		k = 1
	}
	out := make([]CellRange, k)
	for i := range out {
		out[i] = shardRange(n, k, i)
	}
	return out
}

// shardRange returns the i-th of ShardRanges(n, k) without building
// the others: the first n%k ranges hold one extra cell.
func shardRange(n, k, i int) CellRange {
	size, extra := n/k, n%k
	lo := i*size + min(i, extra)
	if i < extra {
		size++
	}
	return CellRange{Lo: lo, Hi: lo + size}
}

// GridPlan is a named, ordered list of grid specs — the shardable
// unit. A single cross-product GridSpec is the one-spec plan; tables
// whose (point, solver) pairing is not a cross product (T13's
// per-point solver sets, T14's per-point solver) concatenate one spec
// per pairing. Cells() order is the canonical cell indexing every
// range, envelope, and merge refers to.
type GridPlan struct {
	// ID names the plan for fingerprints and CLI lookup ("T13",
	// "T14", "bench").
	ID    string
	Specs []GridSpec
}

// Cells concatenates the specs' cell enumerations in order.
func (p GridPlan) Cells() []GridCell {
	var out []GridCell
	for _, s := range p.Specs {
		out = append(out, s.Cells()...)
	}
	return out
}

// NumCells returns len(p.Cells()) without materializing it.
func (p GridPlan) NumCells() int {
	n := 0
	for _, s := range p.Specs {
		n += s.NumCells()
	}
	return n
}

// Plan wraps a single spec as an anonymous one-spec plan.
func Plan(id string, spec GridSpec) GridPlan {
	return GridPlan{ID: id, Specs: []GridSpec{spec}}
}

// fingerprintDoc is everything that determines cell values: the
// payload contract version, the plan identity and its full spec list,
// and the config fields the harness mixes into seeds or repetition
// counts. Workers is deliberately absent — parallelism never changes
// values — so shards produced at any pool size merge.
type fingerprintDoc struct {
	Schema int        `json:"schema"`
	Plan   string     `json:"plan"`
	Specs  []GridSpec `json:"specs"`
	Seed   int64      `json:"seed"`
	Quick  bool       `json:"quick"`
	Reps   int        `json:"reps"`
}

// Fingerprint hashes the (config, plan) pair that a shard was cut
// from (via the shared internal/fingerprint canon). Two shard files
// merge only if their fingerprints match: same spec list, same root
// seed, same repetition counts, same schema.
func Fingerprint(cfg Config, p GridPlan) string {
	return fingerprint.JSON(fingerprintDoc{
		Schema: ShardSchemaVersion,
		Plan:   p.ID,
		Specs:  p.Specs,
		Seed:   cfg.Seed,
		Quick:  cfg.Quick,
		Reps:   cfg.reps(),
	}, 8)
}

// RunPlanRange evaluates cells [r.Lo:r.Hi) of the plan on the worker
// pool and returns their rows in cell order, each tagged with its
// global cell index. Values are identical to the same slice of a
// full-plan run because every cell derives its seeds from its own
// coordinates, never from execution context.
func RunPlanRange(cfg Config, p GridPlan, r CellRange) []ShardCell {
	cells := p.Cells()
	if r.Lo < 0 || r.Hi > len(cells) || r.Lo > r.Hi {
		panic(fmt.Sprintf("exp: range %s out of bounds for %d cells", r, len(cells)))
	}
	return runCells(cfg, r.Len(), func(i int) ShardCell {
		row := EvalCell(cfg, cells[r.Lo+i])
		row.Index = r.Lo + i
		return row
	})
}

// RunPlan evaluates the full plan.
func RunPlan(cfg Config, p GridPlan) []ShardCell {
	return RunPlanRange(cfg, p, CellRange{Lo: 0, Hi: p.NumCells()})
}

// CellRow is the deterministic projection of one evaluated cell — the
// merge payload. Everything here is a pure function of (fingerprint,
// index); wall-clock timings live next to it in ShardCell and are
// stripped by Merge, which is what lets merged output byte-compare
// against the sequential run.
type CellRow struct {
	// Index is the cell's position in the plan's Cells() order.
	Index    int    `json:"index"`
	Scenario string `json:"scenario"`
	Jobs     int    `json:"jobs"`
	Machines int    `json:"machines"`
	Arg      int    `json:"arg,omitempty"`
	Solver   string `json:"solver"`
	Trial    int    `json:"trial,omitempty"`
	// Seed is the derived (point, trial) seed the cell ran under,
	// recorded so a single cell can be reproduced in isolation.
	Seed  int64  `json:"seed"`
	Class string `json:"class,omitempty"`
	// Kind is the built construction's display name.
	Kind string `json:"kind,omitempty"`
	// Mean is the estimated expected makespan (-1 when runs hit the
	// step cap).
	Mean       float64 `json:"mean"`
	LowerBound float64 `json:"lower_bound"`
	// PrefixLen is the built schedule's oblivious prefix length (0 for
	// adaptive policies).
	PrefixLen int `json:"prefix_len,omitempty"`
	// Engine names the simulation engine that actually ran the cell —
	// deterministic for the cell's coordinates, hence payload: a
	// sharded run must agree with the sequential one about which
	// engine every cell used.
	Engine   string `json:"engine,omitempty"`
	LPPivots int    `json:"lp_pivots,omitempty"`
	Err      string `json:"err,omitempty"`
}

// ShardCell is one evaluated grid cell, the row every grid renderer
// reads and every envelope carries: the deterministic row plus the
// producing process's timing.
type ShardCell struct {
	CellRow
	// BuildMS is construction wall-clock in the producing process —
	// provenance, not payload; Merge drops it.
	BuildMS float64 `json:"build_ms"`
}

// ShardFile is the portable partial-result envelope one worker
// process writes.
type ShardFile struct {
	SchemaVersion int       `json:"schema_version"`
	Fingerprint   string    `json:"fingerprint"`
	Plan          string    `json:"plan"`
	Seed          int64     `json:"seed"`
	Quick         bool      `json:"quick"`
	TotalCells    int       `json:"total_cells"`
	Range         CellRange `json:"range"`
	GoVersion     string    `json:"go_version"`
	WallMS        float64   `json:"wall_ms"`
	// PayloadSHA256 is the hex checksum of the envelope's deterministic
	// payload — fingerprint, range, and row payloads, but not timings —
	// computed by the producing worker (RunShard) and re-verified by
	// every decode, so a byte flipped in transit is detected instead of
	// merged. Empty means unsealed (hand-built test envelopes); decode
	// then skips the check.
	PayloadSHA256 string      `json:"payload_sha256,omitempty"`
	Cells         []ShardCell `json:"cells"`
}

// payloadChecksum hashes everything a corrupted envelope could lie
// about that Merge would propagate: the identity header, the declared
// range, and every row's deterministic payload (CellRow — BuildMS is
// provenance and deliberately excluded, so a damaged timing never
// poisons an otherwise-sound envelope).
func (f *ShardFile) payloadChecksum() string {
	rows := make([]CellRow, len(f.Cells))
	for i, c := range f.Cells {
		rows[i] = c.CellRow
	}
	return fingerprint.JSON(struct {
		Schema      int       `json:"schema"`
		Fingerprint string    `json:"fingerprint"`
		Plan        string    `json:"plan"`
		Seed        int64     `json:"seed"`
		Quick       bool      `json:"quick"`
		TotalCells  int       `json:"total_cells"`
		Range       CellRange `json:"range"`
		Rows        []CellRow `json:"rows"`
	}{f.SchemaVersion, f.Fingerprint, f.Plan, f.Seed, f.Quick, f.TotalCells, f.Range, rows}, 16)
}

// VerifyPayload re-computes the payload checksum against the sealed
// value. Unsealed envelopes pass vacuously.
func (f *ShardFile) VerifyPayload() error {
	if f.PayloadSHA256 == "" {
		return nil
	}
	if got := f.payloadChecksum(); got != f.PayloadSHA256 {
		return fmt.Errorf("exp: shard %s payload checksum %s, envelope sealed as %s", f.Range, got, f.PayloadSHA256)
	}
	return nil
}

// MergedGrid is the canonical whole-sweep document Merge produces:
// rows in exact Cells() order, no timings, no per-process provenance.
// Its JSON() bytes are identical whether the rows came from one
// process or any disjoint tiling of shards.
type MergedGrid struct {
	SchemaVersion int       `json:"schema_version"`
	Fingerprint   string    `json:"fingerprint"`
	Plan          string    `json:"plan"`
	Seed          int64     `json:"seed"`
	Quick         bool      `json:"quick"`
	TotalCells    int       `json:"total_cells"`
	Cells         []CellRow `json:"cells"`
}

// RunShard executes cells r of the plan and seals them in their
// envelope.
func RunShard(cfg Config, p GridPlan, r CellRange) *ShardFile {
	start := time.Now()
	cells := RunPlanRange(cfg, p, r)
	if cells == nil {
		cells = []ShardCell{} // an empty shard still writes "cells": []
	}
	f := &ShardFile{
		SchemaVersion: ShardSchemaVersion,
		Fingerprint:   Fingerprint(cfg, p),
		Plan:          p.ID,
		Seed:          cfg.Seed,
		Quick:         cfg.Quick,
		TotalCells:    p.NumCells(),
		Range:         r,
		GoVersion:     runtime.Version(),
		Cells:         cells,
	}
	f.WallMS = float64(time.Since(start).Nanoseconds()) / 1e6
	f.PayloadSHA256 = f.payloadChecksum()
	return f
}

// Merge validates a set of shard envelopes and reassembles the
// canonical whole-sweep document. It fails loudly on every way a
// distributed run can silently lie: mixed schema versions or
// fingerprints (shards cut from different sweeps), overlapping ranges
// or duplicated cells (a row computed twice — which one wins?), gaps
// or missing tail (a worker lost — the error names the missing cell
// range, which is exactly what to run again), and rows whose index or
// coordinate sits outside their declared range. Shard order does not
// matter.
func Merge(shards []*ShardFile) (*MergedGrid, error) {
	if len(shards) == 0 {
		return nil, errors.New("exp: merge of zero shards")
	}
	sorted := append([]*ShardFile(nil), shards...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Range.Lo < sorted[j].Range.Lo })
	first := sorted[0]
	if first.SchemaVersion != ShardSchemaVersion {
		return nil, fmt.Errorf("exp: shard schema version %d, this binary speaks %d",
			first.SchemaVersion, ShardSchemaVersion)
	}
	// Size the merged rows from what the envelopes carry, not from the
	// total_cells they claim: the range checks below have not vetted
	// that number yet.
	rows := 0
	for _, s := range sorted {
		rows += len(s.Cells)
	}
	m := &MergedGrid{
		SchemaVersion: first.SchemaVersion,
		Fingerprint:   first.Fingerprint,
		Plan:          first.Plan,
		Seed:          first.Seed,
		Quick:         first.Quick,
		TotalCells:    first.TotalCells,
		Cells:         make([]CellRow, 0, rows),
	}
	next := 0
	for _, s := range sorted {
		if s.SchemaVersion != m.SchemaVersion {
			return nil, fmt.Errorf("exp: mixed shard schema versions %d and %d", m.SchemaVersion, s.SchemaVersion)
		}
		if s.Fingerprint != m.Fingerprint {
			return nil, fmt.Errorf("exp: fingerprint mismatch: shard %s has %s, shard %s has %s — not cut from the same sweep",
				s.Range, s.Fingerprint, first.Range, m.Fingerprint)
		}
		if s.Plan != m.Plan || s.Seed != m.Seed || s.Quick != m.Quick || s.TotalCells != m.TotalCells {
			return nil, fmt.Errorf("exp: shard %s header (plan %q seed %d quick %v total %d) disagrees with (plan %q seed %d quick %v total %d)",
				s.Range, s.Plan, s.Seed, s.Quick, s.TotalCells, m.Plan, m.Seed, m.Quick, m.TotalCells)
		}
		if s.Range.Lo > s.Range.Hi || s.Range.Lo < 0 || s.Range.Hi > m.TotalCells {
			return nil, fmt.Errorf("exp: shard range %s invalid for %d cells", s.Range, m.TotalCells)
		}
		if len(s.Cells) != s.Range.Len() {
			return nil, fmt.Errorf("exp: shard %s carries %d rows, want %d", s.Range, len(s.Cells), s.Range.Len())
		}
		if s.Range.Len() == 0 {
			// Empty shards carry no cells and tile trivially wherever
			// they sit (an N-way split of fewer-than-N cells, or an
			// explicit a:a range) — header checks above still apply.
			continue
		}
		if s.Range.Lo < next {
			return nil, fmt.Errorf("exp: overlapping shards: cells [%d:%d) delivered twice", s.Range.Lo, min(next, s.Range.Hi))
		}
		if s.Range.Lo > next {
			return nil, missingRange(next, s.Range.Lo)
		}
		for i, c := range s.Cells {
			if c.Index != s.Range.Lo+i {
				return nil, fmt.Errorf("exp: shard %s row %d tagged index %d, want %d (duplicate or shuffled cell)",
					s.Range, i, c.Index, s.Range.Lo+i)
			}
			m.Cells = append(m.Cells, c.CellRow)
		}
		next = s.Range.Hi
	}
	if next != m.TotalCells {
		return nil, missingRange(next, m.TotalCells)
	}
	return m, nil
}

// missingRange reports a gap in a shard tiling: no envelope covers
// cells [lo:hi).
func missingRange(lo, hi int) error {
	return fmt.Errorf("exp: missing cell range [%d:%d): no shard covers it", lo, hi)
}

// JSON renders the canonical bytes (stable indentation, trailing
// newline) that the CI merge job compares.
func (m *MergedGrid) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ShardResults flattens validated shards into their rows in cell
// order, each keeping its producing process's build timing — what
// suu-bench renders merged tables from. Call Merge first; this trusts
// the tiling.
func ShardResults(shards []*ShardFile) []ShardCell {
	sorted := append([]*ShardFile(nil), shards...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Range.Lo < sorted[j].Range.Lo })
	var out []ShardCell
	for _, s := range sorted {
		out = append(out, s.Cells...)
	}
	return out
}

// DecodeShardFile parses a shard envelope, rejecting unknown fields
// so a truncated or foreign document fails at decode, not at merge,
// and re-verifies the sealed payload checksum so bit corruption in
// transit fails here too. The envelope must be the whole input, bar
// trailing whitespace: a second envelope after it (two files
// concatenated) is an error, not silently dropped.
func DecodeShardFile(data []byte) (*ShardFile, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f ShardFile
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("exp: decode shard file: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("exp: decode shard file: data after the envelope")
	}
	if err := f.VerifyPayload(); err != nil {
		return nil, err
	}
	return &f, nil
}

// EncodeShardFile renders a shard envelope with the same stable
// formatting as the merged document.
func EncodeShardFile(f *ShardFile) ([]byte, error) {
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
