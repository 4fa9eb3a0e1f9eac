package model

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewAndValidate(t *testing.T) {
	in := New(3, 2)
	if err := in.Validate(); err == nil {
		t.Error("all-zero P accepted (jobs must have a capable machine)")
	}
	for j := 0; j < 3; j++ {
		in.P[0][j] = 0.5
	}
	if err := in.Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
}

func TestValidateRejectsBadProbability(t *testing.T) {
	in := New(1, 1)
	in.P[0][0] = 1.5
	if err := in.Validate(); err == nil {
		t.Error("p>1 accepted")
	}
	in.P[0][0] = -0.1
	if err := in.Validate(); err == nil {
		t.Error("p<0 accepted")
	}
	in = New(2, 2)
	in.P = [][]float64{{0.5, math.NaN()}, {0.5, 0.5}}
	if err := in.Validate(); err == nil {
		t.Error("NaN accepted")
	}
}

func TestValidateRejectsCycle(t *testing.T) {
	in := New(2, 1)
	in.P[0][0], in.P[0][1] = 0.5, 0.5
	in.Prec.MustEdge(0, 1)
	in.Prec.MustEdge(1, 0)
	if err := in.Validate(); err == nil {
		t.Error("cyclic precedence accepted")
	}
}

func TestValidateDimensionMismatch(t *testing.T) {
	in := New(2, 2)
	in.P[0][0], in.P[0][1], in.P[1][0], in.P[1][1] = 0.1, 0.1, 0.1, 0.1
	in.P = in.P[:1]
	if err := in.Validate(); err == nil {
		t.Error("row count mismatch accepted")
	}
}

func TestSuccessProbAndMass(t *testing.T) {
	in := New(1, 3)
	in.P[0][0], in.P[1][0], in.P[2][0] = 0.5, 0.5, 0.2
	got := in.SuccessProb(0, []int{0, 1})
	if math.Abs(got-0.75) > 1e-12 {
		t.Errorf("SuccessProb=%v, want 0.75", got)
	}
	if m := in.Mass(0, []int{0, 1, 2}); m != 1 {
		t.Errorf("Mass=%v, want capped 1", m)
	}
	if m := in.Mass(0, []int{2}); math.Abs(m-0.2) > 1e-12 {
		t.Errorf("Mass=%v, want 0.2", m)
	}
}

// Property (Proposition 2.1): mass bounds the success probability above,
// and when the raw sum is <= 1, success >= mass/e.
func TestProposition21(t *testing.T) {
	prop := func(raw []float64) bool {
		var ps []float64
		sum := 0.0
		for _, v := range raw {
			p := math.Abs(v)
			p -= math.Floor(p) // fold into [0,1)
			ps = append(ps, p)
			sum += p
			if len(ps) == 6 {
				break
			}
		}
		if len(ps) == 0 {
			return true
		}
		in := New(1, len(ps))
		for i, p := range ps {
			in.P[i][0] = p
		}
		ms := make([]int, len(ps))
		for i := range ms {
			ms[i] = i
		}
		succ := in.SuccessProb(0, ms)
		mass := in.Mass(0, ms)
		if succ > mass+1e-12 {
			return false
		}
		if sum <= 1 && succ < mass/math.E-1e-12 {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPMin(t *testing.T) {
	in := New(2, 2)
	in.P[0][0] = 0.3
	in.P[1][1] = 0.1
	if pm := in.PMin(); pm != 0.1 {
		t.Errorf("PMin=%v, want 0.1", pm)
	}
	if pm := New(1, 1).PMin(); pm != 0 {
		t.Errorf("PMin of zero matrix = %v, want 0", pm)
	}
}

func TestCloneIndependence(t *testing.T) {
	in := New(2, 1)
	in.P[0][0], in.P[0][1] = 0.5, 0.5
	c := in.Clone()
	c.P[0][0] = 0.9
	c.Prec.MustEdge(0, 1)
	if in.P[0][0] != 0.5 || in.Prec.E() != 0 {
		t.Error("Clone shares storage")
	}
}

func TestMaxMassPerStep(t *testing.T) {
	in := New(1, 3)
	in.P[0][0], in.P[1][0], in.P[2][0] = 0.6, 0.6, 0.6
	if m := in.MaxMassPerStep(0); m != 1 {
		t.Errorf("capped mass=%v", m)
	}
	in2 := New(1, 2)
	in2.P[0][0], in2.P[1][0] = 0.2, 0.3
	if m := in2.MaxMassPerStep(0); math.Abs(m-0.5) > 1e-12 {
		t.Errorf("mass=%v, want 0.5", m)
	}
}
