package sched

import (
	"testing"

	"suu/internal/model"
)

func TestCompactRemovesIdleOnly(t *testing.T) {
	in := model.New(2, 2)
	in.P[0][0], in.P[1][1] = 0.5, 0.5
	o := NewOblivious(2, []Assignment{
		{Idle, Idle},
		{0, Idle},
		{Idle, Idle},
		{Idle, 1},
	}, nil)
	c := o.Compact()
	if c.Len() != 2 {
		t.Fatalf("len=%d, want 2", c.Len())
	}
	m1 := MassPerJob(in, o)
	m2 := MassPerJob(in, c)
	for j := range m1 {
		if m1[j] != m2[j] {
			t.Errorf("mass changed for job %d", j)
		}
	}
	// Precedence window order is preserved: job 0's last assignment
	// still precedes job 1's first.
	if err := CheckMassWindows(in, c, 0.5); err != nil {
		t.Error(err)
	}
}

func TestCompactAllIdleKeepsOneStep(t *testing.T) {
	o := NewOblivious(1, []Assignment{{Idle}, {Idle}}, nil)
	if c := o.Compact(); c.Len() != 1 {
		t.Errorf("len=%d, want 1", c.Len())
	}
	if c := (&Oblivious{M: 1}).Compact(); c.Len() != 0 {
		t.Errorf("empty prefix should stay empty")
	}
}
