package maxflow

import "testing"

// TestReserveKeepsEdgesAndFlows adds a reserved bipartite network's
// edges without growing the edge array, and routes the same flow on
// every edge as the network built without a reservation.
func TestReserveKeepsEdgesAndFlows(t *testing.T) {
	const jobs, machines = 6, 4
	build := func(reserve bool) (*Graph, []int) {
		g := New(2 + jobs + machines)
		if reserve {
			g.Reserve(jobs + jobs*machines + machines)
		}
		var ids []int
		add := func(u, v int, c int64) {
			before := cap(g.edges)
			ids = append(ids, g.AddEdge(u, v, c))
			if reserve && cap(g.edges) != before {
				t.Fatalf("edge %d grew the reserved edge array", len(ids)-1)
			}
		}
		for j := 0; j < jobs; j++ {
			add(0, 1+j, int64(2+j%3))
			for i := 0; i < machines; i++ {
				add(1+j, 1+jobs+i, int64(1+(i+j)%2))
			}
		}
		for i := 0; i < machines; i++ {
			add(1+jobs+i, 1+jobs+machines, 3)
		}
		return g, ids
	}
	plain, ids := build(false)
	reserved, rids := build(true)
	if a, b := plain.MaxFlow(0, 1+jobs+machines), reserved.MaxFlow(0, 1+jobs+machines); a != b {
		t.Fatalf("max flow %d with a reservation, %d without", b, a)
	}
	for k := range ids {
		if ids[k] != rids[k] || plain.Flow(ids[k]) != reserved.Flow(rids[k]) {
			t.Fatalf("edge %d: id %d flow %d reserved, id %d flow %d plain",
				k, rids[k], reserved.Flow(rids[k]), ids[k], plain.Flow(ids[k]))
		}
	}
}
