package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"suu"
)

// TestMetricsMatchSpec pins the metric tables and workload names to
// BENCHMARK.json, so the program and the declared contract cannot
// drift apart.
func TestMetricsMatchSpec(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("spec has %d workloads, program %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: spec %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	if len(sp.EndToEnd) != len(endToEndDefs) {
		t.Fatalf("spec has %d end-to-end metrics, program %d", len(sp.EndToEnd), len(endToEndDefs))
	}
	for i, m := range sp.EndToEnd {
		if d := endToEndDefs[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("end-to-end %d: spec %s [%s], program %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
	if len(sp.PerLayer) != len(perLayerDefs) {
		t.Fatalf("spec has %d per-layer metrics, program %d", len(sp.PerLayer), len(perLayerDefs))
	}
	for i, m := range sp.PerLayer {
		if d := perLayerDefs[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer %d: spec %s [%s], program %s [%s]", i, m.Name, m.Unit, d.name, d.unit)
		}
	}
}

// TestSmoke runs every workload at tiny size, untraced and traced, and
// checks that each declared metric is emitted with its unit and that no
// op failed.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.name, seed: 3, seconds: 0.3, trace: traced, tiny: true, spansDir: t.TempDir()}
			rec, res, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, traced, err)
			}
			if res.Attempted == 0 || res.Failed != 0 || !res.Correct || rec.ErrorRate != 0 {
				t.Errorf("%s trace=%v: attempted %d failed %d error_rate %v: %s",
					w.name, traced, res.Attempted, res.Failed, rec.ErrorRate, rec.FirstErr)
			}
			defs := endToEndDefs
			if traced {
				defs = perLayerDefs
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.name]
				if !ok || v.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.name, traced, d.name, v, d.unit)
				}
				if !traced && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, v.Value)
				}
			}
			if traced {
				if c := res.Metrics["trace.coverage"].Value; c < 0.5 || c > 1 {
					t.Errorf("%s: coverage %v out of range", w.name, c)
				}
				if _, err := os.Stat(rec.SpansFile); err != nil {
					t.Errorf("%s: spans file: %v", w.name, err)
				}
			}
		}
	}
}

// TestEstimatesBitIdenticalAcrossWorkers checks one estimate of each
// library workload at one and two workers: the fan-out the benchmark
// times must be the deterministic one. The repetition counts span
// several 256-repetition chunks, so two workers really split the work.
func TestEstimatesBitIdenticalAcrossWorkers(t *testing.T) {
	r, err := setupStatic(5, true)
	if err != nil {
		t.Fatal(err)
	}
	li := r.(*staticRunner).pool[1]
	s, err := suu.Solve(li.x, suu.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	one, err := s.EstimateMakespan(li.x, staticReps, suu.WithSeed(5), suu.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	two, err := s.EstimateMakespan(li.x, staticReps, suu.WithSeed(5), suu.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	one.Engine.Workers, two.Engine.Workers = 0, 0
	if one != two {
		t.Errorf("static estimate differs across workers:\n%+v\n%+v", one, two)
	}

	d, err := setupDynamic(5, true)
	if err != nil {
		t.Fatal(err)
	}
	si := d.(*dynamicRunner).scenarios[0]
	for _, name := range []string{"adaptive", "rolling"} {
		est := func(workers int) suu.Estimate {
			opts := []suu.Option{suu.WithSeed(5), suu.WithWorkers(workers)}
			var e suu.Estimate
			var err error
			if name == "adaptive" {
				e, err = si.pub.EstimateAdaptive(1024, opts...)
			} else {
				e, err = si.pub.EstimateRolling(1024, opts...)
			}
			if err != nil {
				t.Fatal(err)
			}
			e.Engine.Workers = 0
			return e
		}
		if one, two := est(1), est(2); one != two {
			t.Errorf("scenario %s estimate differs across workers:\n%+v\n%+v", name, one, two)
		}
	}
}

// TestSummarizeSelfTime checks self time, probe exclusion and coverage
// on a hand-built span tree.
func TestSummarizeSelfTime(t *testing.T) {
	r := &recorder{counts: map[string]float64{}}
	r.spans = []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 0, End: 60},
		{Name: "b", Parent: 1, Start: 10, End: 30},
		{Name: "p", Parent: 0, Start: 60, End: 90, Probe: true},
		{Name: "q", Parent: -1, Start: 100, End: 120, Probe: true},
	}
	s := summarize([]*recorder{r})
	if s.ops != 1 || s.opNS != 70 {
		t.Fatalf("ops %d opNS %d, want 1 and 70", s.ops, s.opNS)
	}
	if got := s.layers["a"].selfNS; got != 40 {
		t.Errorf("self time of a = %d, want 40", got)
	}
	if got := s.layers["q"].calls; got != 1 {
		t.Errorf("top-level probe calls = %d, want 1", got)
	}
	if got := s.coverage(); got != 60.0/70 {
		t.Errorf("coverage = %v, want %v", got, 60.0/70)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 3})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 3 = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

// TestCompareFlagsRegression feeds the compare mode two result sets
// whose ops_per_s medians differ by 30% and checks the verdict.
func TestCompareFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, rates ...string) string {
		var b strings.Builder
		for _, r := range rates {
			b.WriteString(`{"workload":"serve-mix","seed":1}` + "\n")
			b.WriteString(`{"correct":true,"attempted":1,"failed":0,"metrics":{"ops_per_s":{"value":` + r + `,"unit":"1/s"}}}` + "\n")
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.jsonl", "100", "101", "99", "100")
	next := write("new.jsonl", "70", "71", "69", "70")
	var out bytes.Buffer
	if err := runCompare(&out, base, next, "../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "WORSE") || !strings.Contains(out.String(), "1 end-to-end pair(s) worse") {
		t.Errorf("compare output does not flag the regression:\n%s", out.String())
	}
}
