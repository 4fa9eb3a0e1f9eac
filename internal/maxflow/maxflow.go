package maxflow

import (
	"fmt"
	"slices"
)

// Graph is a flow network over vertices 0..n-1.
type Graph struct {
	n int
	// edges are stored in pairs: edge e and its reverse e^1. Each
	// vertex's edges form a list in insertion order, kept in two flat
	// arrays rather than a slice per vertex: first[u] is u's first
	// edge and last[u] its last (-1 when u has none), and edges[e].next
	// follows e (-1 ends the list).
	edges       []edge
	first, last []int32
}

type edge struct {
	to, next int32
	cap      int64
}

// New returns an empty network with n vertices.
func New(n int) *Graph {
	if n <= 0 {
		panic("maxflow: network needs at least one vertex")
	}
	ends := make([]int32, 2*n)
	for i := range ends {
		ends[i] = -1
	}
	return &Graph{n: n, first: ends[:n:n], last: ends[n:]}
}

// N returns the vertex count.
func (g *Graph) N() int { return g.n }

// Reserve makes room for edges more AddEdge calls, so a caller that
// knows its edge count grows the edge array once instead of doubling
// it from empty. It changes no edge id and no flow.
func (g *Graph) Reserve(edges int) {
	g.edges = slices.Grow(g.edges, 2*edges)
}

// AddEdge inserts a directed edge u->v with the given capacity and
// returns its edge id, usable with Flow after a MaxFlow run.
func (g *Graph) AddEdge(u, v int, capacity int64) int {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("maxflow: edge (%d,%d) out of range [0,%d)", u, v, g.n))
	}
	if capacity < 0 {
		panic("maxflow: negative capacity")
	}
	id := len(g.edges)
	g.edges = append(g.edges, edge{to: int32(v), next: -1, cap: capacity}, edge{to: int32(u), next: -1})
	g.link(u, id)
	g.link(v, id+1)
	return id
}

// link appends edge e to vertex u's list.
func (g *Graph) link(u, e int) {
	if l := g.last[u]; l < 0 {
		g.first[u] = int32(e)
	} else {
		g.edges[l].next = int32(e)
	}
	g.last[u] = int32(e)
}

// Flow returns the flow currently routed along edge id (after MaxFlow).
func (g *Graph) Flow(id int) int64 {
	return g.edges[id^1].cap
}

// MaxFlow computes the maximum s→t flow (Dinic's algorithm,
// O(V²E) worst case, far faster on the unit-ish bipartite networks
// used here). It may be called once per graph.
func (g *Graph) MaxFlow(s, t int) int64 {
	if s == t {
		panic("maxflow: source equals sink")
	}
	level := make([]int, g.n)
	iter := make([]int32, g.n) // each vertex's current edge, -1 when spent
	queue := make([]int, 0, g.n)

	bfs := func() bool {
		for i := range level {
			level[i] = -1
		}
		queue = queue[:0]
		queue = append(queue, s)
		level[s] = 0
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for e := g.first[u]; e >= 0; e = g.edges[e].next {
				if to := int(g.edges[e].to); g.edges[e].cap > 0 && level[to] == -1 {
					level[to] = level[u] + 1
					queue = append(queue, to)
				}
			}
		}
		return level[t] != -1
	}

	var dfs func(u int, f int64) int64
	dfs = func(u int, f int64) int64 {
		if u == t {
			return f
		}
		for ; iter[u] >= 0; iter[u] = g.edges[iter[u]].next {
			e := &g.edges[iter[u]]
			v := int(e.to)
			if e.cap <= 0 || level[v] != level[u]+1 {
				continue
			}
			got := dfs(v, min(f, e.cap))
			if got > 0 {
				e.cap -= got
				g.edges[iter[u]^1].cap += got
				return got
			}
		}
		return 0
	}

	const inf = int64(1) << 62
	var flow int64
	for bfs() {
		copy(iter, g.first)
		for {
			f := dfs(s, inf)
			if f == 0 {
				break
			}
			flow += f
		}
	}
	return flow
}
