package sched

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestGantt(t *testing.T) {
	o := NewOblivious(2, []Assignment{{0, Idle}, {1, 0}, {Idle, Idle}}, nil)
	g := o.Gantt(0)
	if !strings.Contains(g, "m0") || !strings.Contains(g, "m1") {
		t.Fatalf("missing machine rows:\n%s", g)
	}
	lines := strings.Split(strings.TrimSpace(g), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines", len(lines))
	}
	if !strings.Contains(lines[1], "0") || !strings.Contains(lines[1], ".") {
		t.Errorf("row m0 wrong: %q", lines[1])
	}
	// Truncation.
	g2 := o.Gantt(1)
	if !strings.Contains(g2, "t=0..0 (of 3)") {
		t.Errorf("truncated header wrong: %q", g2)
	}
}

func TestObliviousJSONRoundTrip(t *testing.T) {
	o := NewOblivious(2, []Assignment{{0, 1}, {Idle, 0}}, &TopoRoundRobin{M: 2, Order: []int{1, 0}})
	data, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	back := &Oblivious{}
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	if back.M != 2 || back.Len() != 2 {
		t.Fatalf("shape lost: %+v", back)
	}
	if back.At(1)[0] != Idle || back.At(0)[1] != 1 {
		t.Error("assignments lost")
	}
	rr, ok := back.Tail.(*TopoRoundRobin)
	if !ok || len(rr.Order) != 2 || rr.Order[0] != 1 {
		t.Error("tail lost")
	}
	// Execution equivalence across the boundary.
	for _, tt := range []int{0, 1, 2, 3, 7} {
		a1, a2 := o.At(tt), back.At(tt)
		for i := range a1 {
			if a1[i] != a2[i] {
				t.Fatalf("At(%d) differs", tt)
			}
		}
	}
}

func TestObliviousJSONRejectsBad(t *testing.T) {
	for name, raw := range map[string]string{
		"machines":  `{"machines":0,"steps":[]}`,
		"row-width": `{"machines":2,"steps":[[0]]}`,
		"empty":     `{"machines":2,"steps":[]}`,
		"not-json":  `{`,
	} {
		o := &Oblivious{}
		if err := json.Unmarshal([]byte(raw), o); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
