package suu

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"suu/internal/exp"
)

// TestRecordMatchesSchema decodes the committed BENCH_sim.json into
// exp.SimBenchFile, refusing any field the schema lacks, and requires
// exp.WriteSimBenchJSON to reproduce the file byte for byte. A section
// the code no longer writes, or a hand edit the writer would not make,
// fails here.
func TestRecordMatchesSchema(t *testing.T) {
	raw, err := os.ReadFile("BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var f exp.SimBenchFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCH_sim.json does not decode as exp.SimBenchFile: %v", err)
	}
	out, err := exp.WriteSimBenchJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, raw) {
		t.Errorf("re-encoding BENCH_sim.json gives %d bytes that differ from the committed %d", len(out), len(raw))
	}
}
