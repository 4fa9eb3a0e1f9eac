package dag

import (
	"strings"
	"testing"
)

func TestDOTDecomposition(t *testing.T) {
	d := New(4)
	d.MustEdge(0, 1)
	d.MustEdge(0, 2)
	d.MustEdge(2, 3)
	dc := d.ChainDecomposition()
	out := d.DOTDecomposition("g", dc)
	if !strings.Contains(out, "cluster_0") {
		t.Errorf("no clusters:\n%s", out)
	}
	// A path graph yields a genuine multi-vertex chain, rendered bold.
	p := New(3)
	p.MustEdge(0, 1)
	p.MustEdge(1, 2)
	out2 := p.DOTDecomposition("path", p.ChainDecomposition())
	if !strings.Contains(out2, "penwidth=2") {
		t.Errorf("no chain edges marked:\n%s", out2)
	}
}
