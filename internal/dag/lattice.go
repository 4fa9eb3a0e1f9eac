package dag

import (
	"fmt"
	"math/bits"
	"slices"
)

// PredMasks returns each vertex's predecessors as a bitmask: bit u of
// pred[v] is set iff u -> v is an edge. It needs N ≤ 64.
func (d *DAG) PredMasks() []uint64 {
	pred := make([]uint64, d.n)
	for v, ps := range d.preds {
		for _, u := range ps {
			pred[v] |= 1 << uint(u)
		}
	}
	return pred
}

// Eligible returns the eligible vertices of the unfinished set s: those
// of s with no predecessor in s (its minimal elements), given the
// predecessor masks of PredMasks.
func Eligible(s uint64, pred []uint64) uint64 {
	var el uint64
	for t := s; t != 0; t &= t - 1 {
		j := bits.TrailingZeros64(t)
		if pred[j]&s == 0 {
			el |= 1 << uint(j)
		}
	}
	return el
}

// Lattice holds the closed sets of a dag: the vertex sets closed under
// successors, which are the unfinished sets a schedule that respects
// precedence can leave. They are the states of the scheduling Markov
// chain. The sets are sorted by (popcount, mask), so each popcount is a
// contiguous layer and a set's successors lie in lower layers.
type Lattice struct {
	Masks    []uint64 // Masks[0] is the empty set, the last entry the full set
	Elig     []uint64 // Elig[i] is the eligible set of Masks[i]
	LayerOff []int32  // the sets of popcount c are Masks[LayerOff[c]:LayerOff[c+1]]
	MaxK     int      // the largest popcount of any Elig[i]
	// succ[succOff[i]+r] is the index of set i with its r-th eligible
	// vertex (in increasing order) removed; see Without.
	succ, succOff []int32
}

// Without returns the index of set i with vertex j removed; j must be
// eligible in set i. A vertex eligible in a set stays eligible when
// another eligible vertex leaves, so chaining Without removes any
// subset of Elig[i].
func (l *Lattice) Without(i int32, j int) int32 {
	return l.succ[l.succOff[i]+int32(bits.OnesCount64(l.Elig[i]&(1<<uint(j)-1)))]
}

// StatesError is Lattice's error when a dag has more closed sets than
// the limit it was given, or more than 64 vertices.
type StatesError struct {
	N      int // vertices
	States int // closed sets found when the enumeration stopped; 0 when N > 64
	Max    int // the limit given to Lattice
}

func (e *StatesError) Error() string {
	if e.N > 64 {
		return fmt.Sprintf("dag: closed-set masks hold 64 vertices, not %d", e.N)
	}
	return fmt.Sprintf("dag: %d vertices have more than %d closed sets", e.N, e.Max)
}

// Lattice enumerates d's closed sets by BFS from the full set, removing
// one eligible vertex at a time, which reaches every closed set of a
// dag. It returns a *StatesError as soon as the sets outnumber
// maxStates. On a cyclic graph it keeps the empty set, which the BFS
// cannot reach there.
func (d *DAG) Lattice(maxStates int) (*Lattice, error) {
	n := d.n
	if n > 64 {
		return nil, &StatesError{N: n, Max: maxStates}
	}
	pred := d.PredMasks()
	isolated := 0
	for v := range n {
		if pred[v] == 0 && len(d.succs[v]) == 0 {
			isolated++
		}
	}
	// Cheap refusal: c isolated vertices alone make 2^c closed sets, so
	// the BFS would only spend maxStates of work to learn the same.
	if isolated > bits.Len(uint(maxStates))-1 {
		return nil, &StatesError{N: n, States: maxStates + 1, Max: maxStates}
	}
	full := uint64(1)<<uint(n) - 1 // n = 64 wraps to all ones
	idx := make(map[uint64]int32, 1024)
	found := make([]uint64, 1, 1024)
	found[0] = full
	idx[full] = 0
	if full != 0 {
		idx[0] = 1
		found = append(found, 0)
	}
	for head := 0; head < len(found); head++ {
		s := found[head]
		for e := Eligible(s, pred); e != 0; e &= e - 1 {
			s2 := s &^ (e & -e)
			if _, ok := idx[s2]; !ok {
				if len(found) >= maxStates {
					return nil, &StatesError{N: n, States: len(found) + 1, Max: maxStates}
				}
				idx[s2] = int32(len(found))
				found = append(found, s2)
			}
		}
	}
	// Sort by (popcount, mask): sort by mask, then deal the sets into
	// their popcount layers in that order.
	slices.Sort(found)
	ns := len(found)
	l := &Lattice{
		Masks:    make([]uint64, ns),
		Elig:     make([]uint64, ns),
		LayerOff: make([]int32, n+2),
		succOff:  make([]int32, ns+1),
	}
	for _, s := range found {
		l.LayerOff[bits.OnesCount64(s)+1]++
	}
	for c := 1; c <= n+1; c++ {
		l.LayerOff[c] += l.LayerOff[c-1]
	}
	next := slices.Clone(l.LayerOff)
	for _, s := range found {
		c := bits.OnesCount64(s)
		l.Masks[next[c]] = s
		next[c]++
	}
	for i, s := range l.Masks {
		idx[s] = int32(i)
		el := Eligible(s, pred)
		l.Elig[i] = el
		k := bits.OnesCount64(el)
		l.MaxK = max(l.MaxK, k)
		l.succOff[i+1] = l.succOff[i] + int32(k)
	}
	l.succ = make([]int32, 0, l.succOff[ns])
	for i, s := range l.Masks {
		for e := l.Elig[i]; e != 0; e &= e - 1 {
			l.succ = append(l.succ, idx[s&^(e&-e)])
		}
	}
	return l, nil
}
