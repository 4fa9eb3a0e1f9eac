package dag

import (
	"errors"
	"testing"
)

// TestLatticeEdges covers what FuzzLattice's 12 vertices cannot: a
// 64-vertex chain, whose full set is the all-ones mask and whose last
// vertex is bit 63; 65 vertices, which no mask holds; the cheap
// refusal of too many isolated vertices; and a cycle, whose empty set
// the BFS cannot reach.
func TestLatticeEdges(t *testing.T) {
	chain := New(64)
	for v := 1; v < 64; v++ {
		chain.MustEdge(v-1, v)
	}
	l, err := chain.Lattice(65)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Masks) != 65 || l.Masks[0] != 0 || l.Masks[64] != ^uint64(0) || l.MaxK != 1 {
		t.Fatalf("64-chain: %d sets, first %b, last %b, MaxK %d", len(l.Masks), l.Masks[0], l.Masks[64], l.MaxK)
	}
	if got := l.Without(64, 0); l.Masks[got] != ^uint64(0)-1 {
		t.Errorf("64-chain: full set without vertex 0 is %b", l.Masks[got])
	}
	if el := Eligible(1<<63, chain.PredMasks()); el != 1<<63 {
		t.Errorf("64-chain: {63} has eligible %b", el)
	}

	var se *StatesError
	if _, err := New(65).Lattice(1 << 20); !errors.As(err, &se) || se.N != 65 || se.States != 0 {
		t.Errorf("65 vertices: err %v", err)
	}
	if _, err := New(6).Lattice(63); !errors.As(err, &se) || se.States != 64 || se.Max != 63 {
		t.Errorf("6 isolated vertices under a limit of 63: err %v", err)
	}
	if l, err := New(6).Lattice(64); err != nil || len(l.Masks) != 64 {
		t.Errorf("6 isolated vertices under a limit of 64: err %v", err)
	}

	cyc := New(3)
	cyc.MustEdge(0, 1)
	cyc.MustEdge(1, 0)
	l, err = cyc.Lattice(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Masks) != 3 || l.Masks[0] != 0 || l.Masks[1] != 0b011 || l.Masks[2] != 0b111 {
		t.Errorf("cycle 0↔1 beside vertex 2: sets %b", l.Masks)
	}
}
