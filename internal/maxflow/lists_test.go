package maxflow

import (
	"math/rand"
	"testing"
)

// sliceGraph keeps one slice of edge ids per vertex, scanned by index,
// as the reference for Graph's edge lists.
type sliceGraph struct {
	head [][]int
	to   []int
	cap  []int64
}

func (g *sliceGraph) addEdge(u, v int, c int64) int {
	id := len(g.to)
	g.to = append(g.to, v, u)
	g.cap = append(g.cap, c, 0)
	g.head[u] = append(g.head[u], id)
	g.head[v] = append(g.head[v], id+1)
	return id
}

func (g *sliceGraph) maxFlow(s, t int) int64 {
	n := len(g.head)
	level := make([]int, n)
	iter := make([]int, n)
	bfs := func() bool {
		for i := range level {
			level[i] = -1
		}
		queue := []int{s}
		level[s] = 0
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for _, e := range g.head[u] {
				if g.cap[e] > 0 && level[g.to[e]] == -1 {
					level[g.to[e]] = level[u] + 1
					queue = append(queue, g.to[e])
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
		for ; iter[u] < len(g.head[u]); iter[u]++ {
			e := g.head[u][iter[u]]
			v := g.to[e]
			if g.cap[e] <= 0 || level[v] != level[u]+1 {
				continue
			}
			if got := dfs(v, min(f, g.cap[e])); got > 0 {
				g.cap[e] -= got
				g.cap[e^1] += got
				return got
			}
		}
		return 0
	}
	var flow int64
	for bfs() {
		clear(iter)
		for f := dfs(s, 1<<62); f > 0; f = dfs(s, 1<<62) {
			flow += f
		}
	}
	return flow
}

// TestEdgeListsMatchSliceAdjacency routes random networks — general
// ones with parallel and reverse edges, and the rounding's bipartite
// source → jobs → machines → sink shape — through both adjacencies and
// requires the same flow on every edge, not only the same value: the
// rounding reads its integral counts off the edges, so the search
// order must not change.
func TestEdgeListsMatchSliceAdjacency(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		var n int
		var edges [][3]int
		if trial%2 == 0 {
			n = 2 + rng.Intn(12)
			for k := rng.Intn(4 * n); k > 0; k-- {
				if u, v := rng.Intn(n), rng.Intn(n); u != v {
					edges = append(edges, [3]int{u, v, rng.Intn(12)})
				}
			}
		} else {
			jobs, machines := 1+rng.Intn(16), 1+rng.Intn(8)
			n = 2 + jobs + machines
			for j := 0; j < jobs; j++ {
				edges = append(edges, [3]int{0, 1 + j, 1 + rng.Intn(64)})
			}
			for j := 0; j < jobs; j++ {
				for i := 0; i < machines; i++ {
					if rng.Intn(3) > 0 {
						edges = append(edges, [3]int{1 + j, 1 + jobs + i, 1 + rng.Intn(16)})
					}
				}
			}
			for i := 0; i < machines; i++ {
				edges = append(edges, [3]int{1 + jobs + i, n - 1, 1 + rng.Intn(48)})
			}
		}
		g := New(n)
		ref := &sliceGraph{head: make([][]int, n)}
		ids := make([]int, len(edges))
		for k, e := range edges {
			ids[k] = g.AddEdge(e[0], e[1], int64(e[2]))
			if id := ref.addEdge(e[0], e[1], int64(e[2])); id != ids[k] {
				t.Fatalf("trial %d: edge %d has id %d, reference %d", trial, k, ids[k], id)
			}
		}
		got, want := g.MaxFlow(0, n-1), ref.maxFlow(0, n-1)
		if got != want {
			t.Fatalf("trial %d: flow %d, reference %d", trial, got, want)
		}
		for k, id := range ids {
			if f, w := g.Flow(id), ref.cap[id^1]; f != w {
				t.Fatalf("trial %d: edge %d %v carries %d, reference %d", trial, k, edges[k], f, w)
			}
		}
	}
}
