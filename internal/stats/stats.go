package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of real observations.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation (n-1)
	Min    float64
	Max    float64
	// HalfWidth95 is the half-width of an approximate 95% confidence
	// interval on the mean (normal approximation, 1.96·σ/√n).
	HalfWidth95 float64
}

// Summarize computes a Summary of xs. Panics on an empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
		s.HalfWidth95 = 1.96 * s.StdDev / math.Sqrt(float64(s.N))
	}
	return s
}

// String renders "mean ± hw [min,max]".
func (s Summary) String() string {
	return fmt.Sprintf("%.3f ± %.3f [%.3f, %.3f] (n=%d)", s.Mean, s.HalfWidth95, s.Min, s.Max, s.N)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation on the sorted sample. Panics on an empty sample.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	if q < 0 || q > 1 {
		panic("stats: quantile out of [0,1]")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Log2 returns log₂(max(x,1)) — the convention used when reporting
// polylog shapes (log of tiny instance sizes clamps to 0).
func Log2(x float64) float64 {
	if x <= 1 {
		return 0
	}
	return math.Log2(x)
}

// Mean is a convenience for Summarize(xs).Mean.
func Mean(xs []float64) float64 { return Summarize(xs).Mean }
