//go:build !race

// The race detector makes sync.Pool drop a share of what is put back,
// so a pooled solve's allocation count means nothing under -race.

package lp

import "testing"

// TestWarmSolveAllocatesOnlySolution pins what a solve allocates once
// the pool holds a solver large enough: the returned Solution, its X,
// and its Basis with Basic and AtUpper.
func TestWarmSolveAllocatesOnlySolution(t *testing.T) {
	p := lp2Problem(12, 4, 1)
	if _, err := p.Solve(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := p.Solve(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%v allocations per warm solve", allocs)
	if allocs > 5 {
		t.Fatalf("a warm 12x4 LP2 solve made %v allocations, want at most 5 (Solution, X, Basis, Basic, AtUpper)", allocs)
	}
}
