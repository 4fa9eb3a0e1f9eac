package dag

import (
	"cmp"
	"errors"
	"math/bits"
	"slices"
	"testing"
)

// FuzzChainDecomposition feeds arbitrary edge lists (upward-directed,
// hence acyclic) into the decomposition and validates properties
// (i)/(ii) plus exact partitioning. Run with `go test -fuzz
// FuzzChainDecomposition ./internal/dag` for deep exploration; the
// seed corpus runs in regular test mode.
func FuzzChainDecomposition(f *testing.F) {
	f.Add([]byte{6, 0, 1, 1, 2, 0, 3})
	f.Add([]byte{3})
	f.Add([]byte{8, 0, 1, 0, 2, 0, 3, 1, 4, 2, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%20
		d := New(n)
		for k := 1; k+1 < len(data); k += 2 {
			u := int(data[k]) % n
			v := int(data[k+1]) % n
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u // force edges upward: guarantees acyclicity
			}
			d.MustEdge(u, v)
		}
		dc := d.ChainDecomposition()
		if err := dc.Validate(d); err != nil {
			t.Fatalf("n=%d edges=%d method=%s: %v", n, d.E(), dc.Method, err)
		}
	})
}

// FuzzWidthCoverAgreement checks Dilworth duality (|MinChainCover| ==
// Width) on arbitrary acyclic inputs.
func FuzzWidthCoverAgreement(f *testing.F) {
	f.Add([]byte{5, 0, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%12
		d := New(n)
		for k := 1; k+1 < len(data); k += 2 {
			u := int(data[k]) % n
			v := int(data[k+1]) % n
			if u >= v {
				continue
			}
			d.MustEdge(u, v)
		}
		if len(d.MinChainCover()) != d.Width() {
			t.Fatalf("Dilworth violated on n=%d e=%d", n, d.E())
		}
	})
}

// FuzzLattice checks Lattice against a brute-force scan of all 2^n
// masks on arbitrary acyclic inputs of up to 12 vertices: the same
// successor-closed sets in (popcount, mask) order, layer offsets at the
// popcount boundaries, each set's eligible vertices as a Preds loop
// finds them, every Without landing on the set with that vertex
// removed, and a limit one below the count refused with a
// *StatesError.
func FuzzLattice(f *testing.F) {
	f.Add([]byte{6, 0, 1, 1, 2, 0, 3})
	f.Add([]byte{0})
	f.Add([]byte{11, 0, 1, 0, 2, 1, 3, 2, 3, 4, 5, 6, 11, 7, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0])%12
		d := New(n)
		for k := 1; k+1 < len(data); k += 2 {
			u := int(data[k]) % n
			v := int(data[k+1]) % n
			if u >= v {
				continue
			}
			d.MustEdge(u, v)
		}
		var want []uint64
		for s := uint64(0); s < 1<<n; s++ {
			closed := true
			for j := 0; j < n; j++ {
				for _, v := range d.Succs(j) {
					closed = closed && (s>>j&1 == 0 || s>>v&1 == 1)
				}
			}
			if closed {
				want = append(want, s)
			}
		}
		slices.SortFunc(want, func(a, b uint64) int {
			return cmp.Or(cmp.Compare(bits.OnesCount64(a), bits.OnesCount64(b)), cmp.Compare(a, b))
		})
		l, err := d.Lattice(len(want))
		if err != nil {
			t.Fatalf("n=%d e=%d: %v", n, d.E(), err)
		}
		if !slices.Equal(l.Masks, want) {
			t.Fatalf("n=%d e=%d: masks %b, brute force %b", n, d.E(), l.Masks, want)
		}
		if len(l.LayerOff) != n+2 || l.LayerOff[0] != 0 || int(l.LayerOff[n+1]) != len(want) {
			t.Fatalf("n=%d: layer offsets %v for %d sets", n, l.LayerOff, len(want))
		}
		for c := 0; c <= n; c++ {
			for i := l.LayerOff[c]; i < l.LayerOff[c+1]; i++ {
				if bits.OnesCount64(l.Masks[i]) != c {
					t.Fatalf("n=%d: set %b at %d lies in layer %d", n, l.Masks[i], i, c)
				}
			}
		}
		index := make(map[uint64]int32, len(want))
		for i, s := range want {
			index[s] = int32(i)
		}
		maxK := 0
		for i, s := range l.Masks {
			var el uint64
			for j := 0; j < n; j++ {
				free := s>>j&1 == 1
				for _, u := range d.Preds(j) {
					free = free && s>>u&1 == 0
				}
				if free {
					el |= 1 << j
				}
			}
			if l.Elig[i] != el {
				t.Fatalf("n=%d: set %b has eligible %b, Preds give %b", n, s, l.Elig[i], el)
			}
			maxK = max(maxK, bits.OnesCount64(el))
			for e := el; e != 0; e &= e - 1 {
				j := bits.TrailingZeros64(e)
				if got, want := l.Without(int32(i), j), index[s&^(1<<j)]; got != want {
					t.Fatalf("n=%d: set %b without %d is index %d, want %d", n, s, j, got, want)
				}
			}
		}
		if l.MaxK != maxK {
			t.Fatalf("n=%d: MaxK %d, want %d", n, l.MaxK, maxK)
		}
		var se *StatesError
		if _, err := d.Lattice(len(want) - 1); !errors.As(err, &se) || se.States <= se.Max || se.Max != len(want)-1 {
			t.Fatalf("n=%d: %d sets under a limit of %d: err %v", n, len(want), len(want)-1, err)
		}
	})
}
