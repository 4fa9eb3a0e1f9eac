package dag

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestAddEdgeValidation(t *testing.T) {
	d := New(3)
	if err := d.AddEdge(0, 3); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := d.AddEdge(-1, 0); err == nil {
		t.Error("negative vertex accepted")
	}
	if err := d.AddEdge(1, 1); err == nil {
		t.Error("self loop accepted")
	}
	if err := d.AddEdge(0, 1); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := d.AddEdge(0, 1); err != nil {
		t.Fatalf("duplicate edge errored: %v", err)
	}
	if d.E() != 1 {
		t.Errorf("E=%d after duplicate insert, want 1", d.E())
	}
}

func TestTopoOrderAndCycles(t *testing.T) {
	d := New(4)
	d.MustEdge(0, 1)
	d.MustEdge(1, 2)
	d.MustEdge(2, 3)
	order, err := d.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make([]int, 4)
	for i, v := range order {
		pos[v] = i
	}
	for u := 0; u < 4; u++ {
		for _, v := range d.Succs(u) {
			if pos[u] >= pos[v] {
				t.Errorf("topo order violated: %d before %d", v, u)
			}
		}
	}

	c := New(3)
	c.MustEdge(0, 1)
	c.MustEdge(1, 2)
	c.MustEdge(2, 0)
	if _, err := c.TopoOrder(); err == nil {
		t.Error("cycle not detected")
	}
	if c.IsAcyclic() {
		t.Error("IsAcyclic true on cycle")
	}
	if err := c.Validate(); err == nil {
		t.Error("Validate accepted cycle")
	}
}

// topoSortPerPop is the reference TopoOrder: Kahn's algorithm that
// sorts its whole frontier before every pop.
func topoSortPerPop(d *DAG) ([]int, error) {
	indeg := make([]int, d.n)
	var frontier []int
	for v := 0; v < d.n; v++ {
		if indeg[v] = len(d.preds[v]); indeg[v] == 0 {
			frontier = append(frontier, v)
		}
	}
	var order []int
	for len(frontier) > 0 {
		sort.Ints(frontier)
		u := frontier[0]
		frontier = frontier[1:]
		order = append(order, u)
		for _, v := range d.succs[u] {
			if indeg[v]--; indeg[v] == 0 {
				frontier = append(frontier, v)
			}
		}
	}
	if len(order) != d.n {
		return nil, errors.New("dag: graph contains a cycle")
	}
	return order, nil
}

// TestTopoOrderMatchesSortPerPop pins the heap frontier to the
// sort-per-pop reference: the same order on random DAGs of up to 200
// vertices, and the same error once a back edge closes a cycle.
func TestTopoOrderMatchesSortPerPop(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(200)
		// Edges follow a random vertex permutation, so they run both
		// up and down in index order.
		perm := rng.Perm(n)
		d := New(n)
		density := rng.Float64() * 4 / float64(n)
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Float64() < density {
					d.MustEdge(perm[a], perm[b])
				}
			}
		}
		got, err := d.TopoOrder()
		want, werr := topoSortPerPop(d)
		if err != nil || werr != nil || !slices.Equal(got, want) {
			t.Fatalf("trial %d (n=%d): order %v (%v), want %v (%v)", trial, n, got, err, want, werr)
		}
		if n < 2 || d.E() == 0 {
			continue
		}
		// Close a cycle through a random edge's endpoints.
		u := rng.Intn(n)
		for len(d.Succs(u)) == 0 {
			u = rng.Intn(n)
		}
		v := d.Succs(u)[rng.Intn(len(d.Succs(u)))]
		d.MustEdge(v, u)
		_, err = d.TopoOrder()
		_, werr = topoSortPerPop(d)
		if err == nil || werr == nil || err.Error() != werr.Error() {
			t.Fatalf("trial %d: cyclic graph gave %v, want %v", trial, err, werr)
		}
	}
}

func TestDepthAndLevels(t *testing.T) {
	d := New(6)
	// 0->1->2, 0->3, 4 isolated, 3->5
	d.MustEdge(0, 1)
	d.MustEdge(1, 2)
	d.MustEdge(0, 3)
	d.MustEdge(3, 5)
	if got := d.Depth(); got != 3 {
		t.Errorf("Depth=%d, want 3", got)
	}
	lvl := d.Levels()
	want := []int{0, 1, 2, 1, 0, 2}
	for v, w := range want {
		if lvl[v] != w {
			t.Errorf("Levels[%d]=%d, want %d", v, lvl[v], w)
		}
	}
	if New(0).Depth() != 0 {
		t.Error("empty graph depth nonzero")
	}
}

func TestAncestorsDescendants(t *testing.T) {
	d := New(5)
	d.MustEdge(0, 1)
	d.MustEdge(1, 2)
	d.MustEdge(3, 2)
	anc := d.Ancestors(2)
	for v, want := range []bool{true, true, false, true, false} {
		if anc[v] != want {
			t.Errorf("Ancestors(2)[%d]=%v, want %v", v, anc[v], want)
		}
	}
	des := d.Descendants(0)
	for v, want := range []bool{false, true, true, false, false} {
		if des[v] != want {
			t.Errorf("Descendants(0)[%d]=%v, want %v", v, des[v], want)
		}
	}
}

func TestTransitiveClosure(t *testing.T) {
	d := New(4)
	d.MustEdge(0, 1)
	d.MustEdge(1, 2)
	reach := d.TransitiveClosure()
	if !reach[0][2] || !reach[0][1] || !reach[1][2] {
		t.Error("missing reachability")
	}
	if reach[2][0] || reach[0][3] || reach[0][0] {
		t.Error("spurious reachability")
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		name  string
		build func() *DAG
		want  Class
	}{
		{"independent", func() *DAG { return New(4) }, ClassIndependent},
		{"chains", func() *DAG {
			d := New(5)
			d.MustEdge(0, 1)
			d.MustEdge(1, 2)
			d.MustEdge(3, 4)
			return d
		}, ClassChains},
		{"out-forest", func() *DAG {
			d := New(4)
			d.MustEdge(0, 1)
			d.MustEdge(0, 2)
			d.MustEdge(2, 3)
			return d
		}, ClassOutForest},
		{"in-forest", func() *DAG {
			d := New(4)
			d.MustEdge(1, 0)
			d.MustEdge(2, 0)
			d.MustEdge(3, 2)
			return d
		}, ClassInForest},
		{"mixed-forest", func() *DAG {
			d := New(7)
			d.MustEdge(0, 1) // out-tree component
			d.MustEdge(0, 2)
			d.MustEdge(4, 3) // in-tree component
			d.MustEdge(5, 3)
			d.MustEdge(6, 4)
			d.MustEdge(6, 5) // makes comp {3,4,5,6} a diamond: NOT a forest
			return d
		}, ClassGeneral},
		{"true-mixed-forest", func() *DAG {
			d := New(6)
			d.MustEdge(0, 1)
			d.MustEdge(0, 2) // out-tree
			d.MustEdge(3, 5)
			d.MustEdge(4, 5) // in-tree
			return d
		}, ClassMixedForest},
		{"general-dag", func() *DAG {
			d := New(4)
			d.MustEdge(0, 1)
			d.MustEdge(0, 2)
			d.MustEdge(1, 3)
			d.MustEdge(2, 3)
			return d
		}, ClassGeneral},
	}
	for _, tc := range cases {
		if got := tc.build().Classify(); got != tc.want {
			t.Errorf("%s: Classify=%v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestChains(t *testing.T) {
	d := New(6)
	d.MustEdge(0, 1)
	d.MustEdge(1, 2)
	d.MustEdge(3, 4)
	chains, err := d.Chains()
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 3 {
		t.Fatalf("got %d chains, want 3 (two chains + isolated 5)", len(chains))
	}
	bad := New(3)
	bad.MustEdge(0, 2)
	bad.MustEdge(1, 2)
	if _, err := bad.Chains(); err == nil {
		t.Error("Chains accepted a non-chain dag")
	}
}

func TestWidthSmall(t *testing.T) {
	cases := []struct {
		name  string
		build func() *DAG
		want  int
	}{
		{"antichain", func() *DAG { return New(5) }, 5},
		{"single-chain", func() *DAG {
			d := New(4)
			d.MustEdge(0, 1)
			d.MustEdge(1, 2)
			d.MustEdge(2, 3)
			return d
		}, 1},
		{"two-chains", func() *DAG {
			d := New(4)
			d.MustEdge(0, 1)
			d.MustEdge(2, 3)
			return d
		}, 2},
		{"diamond", func() *DAG {
			d := New(4)
			d.MustEdge(0, 1)
			d.MustEdge(0, 2)
			d.MustEdge(1, 3)
			d.MustEdge(2, 3)
			return d
		}, 2},
		{"star-out", func() *DAG {
			d := New(5)
			for v := 1; v < 5; v++ {
				d.MustEdge(0, v)
			}
			return d
		}, 4},
	}
	for _, tc := range cases {
		if got := tc.build().Width(); got != tc.want {
			t.Errorf("%s: Width=%d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestMinChainCoverMatchesWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(9)
		d := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.3 {
					d.MustEdge(u, v)
				}
			}
		}
		cover := d.MinChainCover()
		if len(cover) != d.Width() {
			t.Fatalf("trial %d: |cover|=%d != width=%d", trial, len(cover), d.Width())
		}
		seen := make([]bool, n)
		reach := d.TransitiveClosure()
		for _, ch := range cover {
			for k, v := range ch {
				if seen[v] {
					t.Fatalf("vertex %d covered twice", v)
				}
				seen[v] = true
				if k > 0 && !reach[ch[k-1]][v] {
					t.Fatalf("cover chain not a chain: %d -/-> %d", ch[k-1], v)
				}
			}
		}
		for v, s := range seen {
			if !s {
				t.Fatalf("vertex %d uncovered", v)
			}
		}
	}
}

func TestReverse(t *testing.T) {
	d := New(3)
	d.MustEdge(0, 1)
	d.MustEdge(1, 2)
	r := d.Reverse()
	if r.OutDeg(2) != 1 || r.InDeg(0) != 1 || r.E() != 2 {
		t.Error("Reverse wrong structure")
	}
}

func TestCloneIndependence(t *testing.T) {
	d := New(3)
	d.MustEdge(0, 1)
	c := d.Clone()
	c.MustEdge(1, 2)
	if d.E() != 1 || c.E() != 2 {
		t.Error("Clone shares storage")
	}
}
