package suu

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// citation matches a citation of the committed perf record in the
// docs: `section/row.field` = value, or = lo–hi for a `*` row, which
// cites the min–max over the section's rows. A value may group
// thousands with commas and carry a k suffix.
var citation = regexp.MustCompile("`([a-z_]+)/([^`/]+)\\.([a-z_]+)` = " +
	"((?:[0-9]{1,3}(?:,[0-9]{3})+|[0-9]+)(?:\\.[0-9]+)?k?)" +
	"(?:–((?:[0-9]{1,3}(?:,[0-9]{3})+|[0-9]+)(?:\\.[0-9]+)?k?))?")

// TestDocCitationsMatchRecord checks every citation of BENCH_sim.json
// in docs/ENGINES.md and README.md against the committed record at the
// precision it is printed with. A table row whose status is
// **deleted** cites the record from before the row's removal, so its
// citations are exempt; any other citation of a missing row fails.
func TestDocCitationsMatchRecord(t *testing.T) {
	raw, err := os.ReadFile("BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	var record map[string]json.RawMessage
	if err := json.Unmarshal(raw, &record); err != nil {
		t.Fatalf("BENCH_sim.json: %v", err)
	}
	checked := 0
	for _, doc := range []string{"docs/ENGINES.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(text), "\n") {
			if strings.HasPrefix(line, "|") && strings.Contains(line, "| **deleted**") {
				continue
			}
			for _, m := range citation.FindAllStringSubmatch(line, -1) {
				checked++
				if err := checkCitation(record, m[1], m[2], m[3], m[4], m[5]); err != nil {
					t.Errorf("%s:%d: %s: %v", doc, n+1, m[0], err)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no record citations in the docs")
	}
}

// checkCitation compares one citation with the record: the row's field
// for a named row, the min and max over the rows that have the field
// for `*` (a single printed value then stands for both).
func checkCitation(record map[string]json.RawMessage, section, row, field, lo, hi string) error {
	var rows []map[string]any
	if err := json.Unmarshal(record[section], &rows); err != nil || len(rows) == 0 {
		return fmt.Errorf("the record has no %q rows", section)
	}
	var vals []float64
	for _, r := range rows {
		if row != "*" && !namesRow(r, row) {
			continue
		}
		v, ok := r[field].(float64)
		if !ok && row != "*" {
			return fmt.Errorf("row %q has no numeric %q", row, field)
		}
		if ok {
			vals = append(vals, v)
		}
	}
	switch {
	case len(vals) == 0:
		return fmt.Errorf("no %q row has %q", section, field)
	case row != "*" && len(vals) > 1:
		return fmt.Errorf("%d %q rows are named %q", len(vals), section, row)
	}
	if hi == "" {
		hi = lo
	}
	least, most := vals[0], vals[0]
	for _, v := range vals {
		least, most = min(least, v), max(most, v)
	}
	if got, ok := printedAs(least, lo); !ok {
		return fmt.Errorf("the record reads %s", got)
	}
	if got, ok := printedAs(most, hi); !ok {
		return fmt.Errorf("the record reads %s at the top of the range", got)
	}
	return nil
}

// namesRow reports whether one of the row's string fields is name.
func namesRow(r map[string]any, name string) bool {
	for _, v := range r {
		if s, ok := v.(string); ok && s == name {
			return true
		}
	}
	return false
}

// printedAs formats v the way the printed value p is written (p's
// decimals, thousands when p ends in k, no commas) and reports whether
// that reads p.
func printedAs(v float64, p string) (string, bool) {
	p = strings.ReplaceAll(p, ",", "")
	if strings.HasSuffix(p, "k") {
		v, p = v/1000, strings.TrimSuffix(p, "k")
	}
	decimals := 0
	if i := strings.IndexByte(p, '.'); i >= 0 {
		decimals = len(p) - i - 1
	}
	got := strconv.FormatFloat(v, 'f', decimals, 64)
	return got, got == p
}
