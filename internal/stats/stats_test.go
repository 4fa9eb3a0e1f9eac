package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Errorf("summary=%+v", s)
	}
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.StdDev-want) > 1e-12 {
		t.Errorf("stddev=%v, want %v", s.StdDev, want)
	}
}

func TestSummarizeSingleton(t *testing.T) {
	s := Summarize([]float64{7})
	if s.StdDev != 0 || s.HalfWidth95 != 0 || s.Mean != 7 {
		t.Errorf("summary=%+v", s)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on empty sample")
		}
	}()
	Summarize(nil)
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0=%v", q)
	}
	if q := Quantile(xs, 1); q != 4 {
		t.Errorf("q1=%v", q)
	}
	if q := Quantile(xs, 0.5); q != 2.5 {
		t.Errorf("median=%v, want 2.5", q)
	}
	// Input must not be reordered.
	if xs[0] != 4 {
		t.Error("Quantile mutated input")
	}
}

func TestLog2Clamp(t *testing.T) {
	if Log2(0.5) != 0 || Log2(1) != 0 {
		t.Error("clamp failed")
	}
	if math.Abs(Log2(8)-3) > 1e-12 {
		t.Error("log2(8) != 3")
	}
}

func TestQuantileBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for q out of range")
		}
	}()
	Quantile([]float64{1}, 1.5)
}

// Property: min <= mean <= max, and the quantile function is monotone.
func TestSummaryProperties(t *testing.T) {
	prop := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e9 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		if s.Min > s.Mean+1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		return Quantile(xs, 0.25) <= Quantile(xs, 0.75)+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
