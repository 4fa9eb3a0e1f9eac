package dag

import (
	"errors"
	"fmt"
	"sort"
)

// DAG is a directed graph over vertices 0..n-1 intended to be acyclic.
// Acyclicity is not enforced on every AddEdge (builders may add edges
// freely); call IsAcyclic or Validate before relying on dag-only
// operations. Methods that require acyclicity say so.
type DAG struct {
	n     int
	succs [][]int // succs[u] = out-neighbours of u
	preds [][]int // preds[v] = in-neighbours of v
	edges int
}

// New returns an edgeless graph with n vertices.
func New(n int) *DAG {
	if n < 0 {
		panic("dag: negative vertex count")
	}
	return &DAG{
		n:     n,
		succs: make([][]int, n),
		preds: make([][]int, n),
	}
}

// N returns the number of vertices.
func (d *DAG) N() int { return d.n }

// E returns the number of edges.
func (d *DAG) E() int { return d.edges }

// AddEdge inserts the precedence edge u -> v ("u before v").
// Duplicate edges are ignored; self loops are rejected.
func (d *DAG) AddEdge(u, v int) error {
	if u < 0 || u >= d.n || v < 0 || v >= d.n {
		return fmt.Errorf("dag: edge (%d,%d) out of range [0,%d)", u, v, d.n)
	}
	if u == v {
		return fmt.Errorf("dag: self loop at %d", u)
	}
	for _, w := range d.succs[u] {
		if w == v {
			return nil
		}
	}
	d.succs[u] = append(d.succs[u], v)
	d.preds[v] = append(d.preds[v], u)
	d.edges++
	return nil
}

// MustEdge is AddEdge that panics on error, for use in tests and
// literal construction of known-good graphs.
func (d *DAG) MustEdge(u, v int) {
	if err := d.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// Succs returns the out-neighbours of u. The slice is shared; callers
// must not modify it.
func (d *DAG) Succs(u int) []int { return d.succs[u] }

// Preds returns the in-neighbours of v. The slice is shared; callers
// must not modify it.
func (d *DAG) Preds(v int) []int { return d.preds[v] }

// InDeg returns the in-degree of v.
func (d *DAG) InDeg(v int) int { return len(d.preds[v]) }

// Clone returns a deep copy.
func (d *DAG) Clone() *DAG {
	c := New(d.n)
	for u, ss := range d.succs {
		for _, v := range ss {
			c.MustEdge(u, v)
		}
	}
	return c
}

// Reverse returns the graph with every edge direction flipped.
func (d *DAG) Reverse() *DAG {
	r := New(d.n)
	for u, ss := range d.succs {
		for _, v := range ss {
			r.MustEdge(v, u)
		}
	}
	return r
}

// TopoOrder returns a topological order of the vertices (Kahn's
// algorithm, smallest-index-first for determinism) or an error if the
// graph has a cycle.
func (d *DAG) TopoOrder() ([]int, error) {
	indeg := make([]int, d.n)
	for v := 0; v < d.n; v++ {
		indeg[v] = len(d.preds[v])
	}
	// The frontier is a min-heap of ready vertices, so the order is
	// deterministic. An ascending slice is already a heap.
	frontier := make([]int, 0, d.n)
	for v := 0; v < d.n; v++ {
		if indeg[v] == 0 {
			frontier = append(frontier, v)
		}
	}
	order := make([]int, 0, d.n)
	for len(frontier) > 0 {
		u := frontier[0]
		last := len(frontier) - 1
		frontier[0] = frontier[last]
		frontier = frontier[:last]
		heapDown(frontier)
		order = append(order, u)
		for _, v := range d.succs[u] {
			indeg[v]--
			if indeg[v] == 0 {
				frontier = append(frontier, v)
				heapUp(frontier)
			}
		}
	}
	if len(order) != d.n {
		return nil, errors.New("dag: graph contains a cycle")
	}
	return order, nil
}

// heapUp restores the min-heap h after an append.
func heapUp(h []int) {
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// heapDown restores the min-heap h after its root was replaced.
func heapDown(h []int) {
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// IsAcyclic reports whether the graph has no directed cycle.
func (d *DAG) IsAcyclic() bool {
	_, err := d.TopoOrder()
	return err == nil
}

// Depth returns the number of vertices on a longest directed path
// (so an edgeless graph has depth 1). Requires acyclicity.
func (d *DAG) Depth() int {
	order, err := d.TopoOrder()
	if err != nil {
		panic("dag: Depth on cyclic graph")
	}
	depth := make([]int, d.n)
	best := 0
	for _, u := range order {
		if depth[u] == 0 {
			depth[u] = 1
		}
		if depth[u] > best {
			best = depth[u]
		}
		for _, v := range d.succs[u] {
			if depth[u]+1 > depth[v] {
				depth[v] = depth[u] + 1
			}
		}
	}
	if d.n == 0 {
		return 0
	}
	return best
}

// Levels returns, for every vertex, its longest-path depth from any
// root (roots have level 0). Requires acyclicity.
func (d *DAG) Levels() []int {
	order, err := d.TopoOrder()
	if err != nil {
		panic("dag: Levels on cyclic graph")
	}
	lvl := make([]int, d.n)
	for _, u := range order {
		for _, v := range d.succs[u] {
			if lvl[u]+1 > lvl[v] {
				lvl[v] = lvl[u] + 1
			}
		}
	}
	return lvl
}

// TransitiveClosure returns reach[u][v] = true iff there is a directed
// path from u to v (u != v). Requires acyclicity. O(n·(n+e)).
func (d *DAG) TransitiveClosure() [][]bool {
	order, err := d.TopoOrder()
	if err != nil {
		panic("dag: TransitiveClosure on cyclic graph")
	}
	reach := make([][]bool, d.n)
	for i := range reach {
		reach[i] = make([]bool, d.n)
	}
	// Process in reverse topological order so successors are complete.
	for idx := len(order) - 1; idx >= 0; idx-- {
		u := order[idx]
		for _, v := range d.succs[u] {
			reach[u][v] = true
			for w := 0; w < d.n; w++ {
				if reach[v][w] {
					reach[u][w] = true
				}
			}
		}
	}
	return reach
}

// Class describes the structural family of a precedence dag, matching
// the cases analysed in the paper.
type Class int

const (
	// ClassIndependent: no edges (Section 3, SUU-I).
	ClassIndependent Class = iota
	// ClassChains: disjoint directed chains (Section 4.1, SUU-C).
	ClassChains
	// ClassOutForest: every vertex has in-degree <= 1 (out-trees).
	ClassOutForest
	// ClassInForest: every vertex has out-degree <= 1 (in-trees).
	ClassInForest
	// ClassMixedForest: underlying undirected graph is a forest whose
	// connected components are each an out-tree or an in-tree.
	ClassMixedForest
	// ClassGeneral: anything else (handled by the level-decomposition
	// fallback; no polylog guarantee from the paper).
	ClassGeneral
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassIndependent:
		return "independent"
	case ClassChains:
		return "chains"
	case ClassOutForest:
		return "out-forest"
	case ClassInForest:
		return "in-forest"
	case ClassMixedForest:
		return "mixed-forest"
	case ClassGeneral:
		return "general"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Classify returns the most specific Class the graph belongs to.
// Requires acyclicity.
func (d *DAG) Classify() Class {
	if d.edges == 0 {
		return ClassIndependent
	}
	chains, out, in := true, true, true
	for v := 0; v < d.n; v++ {
		if len(d.preds[v]) > 1 {
			chains = false
			out = false
		}
		if len(d.succs[v]) > 1 {
			chains = false
			in = false
		}
	}
	switch {
	case chains:
		return ClassChains
	case out:
		return ClassOutForest
	case in:
		return ClassInForest
	}
	if comps, ok := d.forestComponents(); ok {
		mixed := true
		for _, comp := range comps {
			if !d.isOutTree(comp) && !d.isInTree(comp) {
				mixed = false
				break
			}
		}
		if mixed {
			return ClassMixedForest
		}
	}
	return ClassGeneral
}

// forestComponents returns the weakly connected components if the
// underlying undirected graph is a forest (no undirected cycle, no
// parallel opposite edges), else ok=false.
func (d *DAG) forestComponents() ([][]int, bool) {
	comp := make([]int, d.n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int
	for s := 0; s < d.n; s++ {
		if comp[s] != -1 {
			continue
		}
		id := len(comps)
		var verts []int
		stack := []int{s}
		comp[s] = id
		edgesInComp := 0
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			verts = append(verts, u)
			edgesInComp += len(d.succs[u])
			for _, v := range d.succs[u] {
				if comp[v] == -1 {
					comp[v] = id
					stack = append(stack, v)
				}
			}
			for _, v := range d.preds[u] {
				if comp[v] == -1 {
					comp[v] = id
					stack = append(stack, v)
				}
			}
		}
		if edgesInComp != len(verts)-1 {
			return nil, false // undirected cycle inside the component
		}
		sort.Ints(verts)
		comps = append(comps, verts)
	}
	return comps, true
}

func (d *DAG) isOutTree(verts []int) bool {
	for _, v := range verts {
		if len(d.preds[v]) > 1 {
			return false
		}
	}
	return true
}

func (d *DAG) isInTree(verts []int) bool {
	for _, v := range verts {
		if len(d.succs[v]) > 1 {
			return false
		}
	}
	return true
}

// Chains decomposes a ClassChains (or ClassIndependent) graph into its
// maximal directed chains, each a slice of vertices in precedence
// order. Isolated vertices become singleton chains. Returns an error
// if some vertex has in- or out-degree above one.
func (d *DAG) Chains() ([][]int, error) {
	for v := 0; v < d.n; v++ {
		if len(d.preds[v]) > 1 || len(d.succs[v]) > 1 {
			return nil, fmt.Errorf("dag: vertex %d violates chain degrees (in=%d,out=%d)",
				v, len(d.preds[v]), len(d.succs[v]))
		}
	}
	var chains [][]int
	for v := 0; v < d.n; v++ {
		if len(d.preds[v]) != 0 {
			continue // not a chain head
		}
		chain := []int{v}
		u := v
		for len(d.succs[u]) == 1 {
			u = d.succs[u][0]
			chain = append(chain, u)
		}
		chains = append(chains, chain)
	}
	return chains, nil
}

// Validate returns an error if the graph is cyclic.
func (d *DAG) Validate() error {
	if !d.IsAcyclic() {
		return errors.New("dag: graph contains a cycle")
	}
	return nil
}
