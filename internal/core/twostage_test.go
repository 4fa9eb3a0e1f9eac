package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/workload"
)

// sequentialForest is SUUForest as a sequential loop: the chain
// pipeline on every block in order with one LPWarm, then the block
// schedules concatenated under one round-robin tail.
func sequentialForest(t *testing.T, in *model.Instance, par Params) ([]*ChainsResult, *sched.Oblivious) {
	t.Helper()
	dc := in.Prec.ChainDecomposition()
	divisor := 0
	switch dc.Method {
	case "rank-out", "rank-in", "per-component":
		divisor = log2Ceil(in.N)
	}
	warm := NewLPWarm(in.M)
	var brs []*ChainsResult
	var blocks []*sched.Oblivious
	for bi, block := range dc.Blocks {
		br, err := chainsOnBlocksDelayed(in, block.Chains, par, divisor, warm)
		if err != nil {
			t.Fatalf("block %d: %v", bi, err)
		}
		brs = append(brs, br)
		blocks = append(blocks, br.Schedule)
	}
	order, err := in.Prec.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	combined := sched.Concat(blocks...)
	combined.Tail = &sched.TopoRoundRobin{M: in.M, Order: order}
	return brs, combined
}

// TestForestMatchesSequentialLoop holds SUUForest, which finishes each
// block on a second goroutine while the next block's LP solves, to the
// sequential loop field by field, on every decomposition the forest
// pipeline takes and at one and two processors.
func TestForestMatchesSequentialLoop(t *testing.T) {
	cases := []struct {
		name, method   string
		jobs, machines int
		dense          bool
		gen            func(workload.Config) *model.Instance
	}{
		{"out-forest", "rank-out", 64, 8, false, workload.OutTree},
		{"in-forest", "rank-in", 64, 8, false, workload.InTree},
		{"mixed-forest", "per-component", 96, 12, false, func(c workload.Config) *model.Instance {
			return workload.MixedForest(c, 8)
		}},
		{"layered", "level", 64, 8, false, func(c workload.Config) *model.Instance {
			return workload.LayeredWidth(c, 8, 0.2)
		}},
		{"dense-out-forest", "rank-out", 24, 4, true, workload.OutTree},
		{"one-block", "chains", 32, 6, false, func(c workload.Config) *model.Instance {
			return workload.Chains(c, 4)
		}},
	}
	for _, procs := range []int{1, 2} {
		prev := runtime.GOMAXPROCS(procs)
		for _, c := range cases {
			for seed := int64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("procs=%d/%s/seed=%d", procs, c.name, seed)
				in := c.gen(workload.Config{Jobs: c.jobs, Machines: c.machines, Seed: seed})
				if m := in.Prec.ChainDecomposition().Method; m != c.method {
					t.Fatalf("%s: decomposition %q, want %q", name, m, c.method)
				}
				par := DefaultParams()
				par.Seed = 1000 + seed
				par.DenseLP = c.dense
				got, err := SUUForest(in, par)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				want, combined := sequentialForest(t, in, par)
				compareForest(t, name, got, want, combined)
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

func compareForest(t *testing.T, name string, got *ForestResult, want []*ChainsResult, combined *sched.Oblivious) {
	t.Helper()
	if len(got.BlockResults) != len(want) {
		t.Fatalf("%s: %d blocks, want %d", name, len(got.BlockResults), len(want))
	}
	for bi, w := range want {
		g := got.BlockResults[bi]
		if !slices.Equal(g.Delays, w.Delays) || g.Congestion != w.Congestion || g.MaxLoad != w.MaxLoad {
			t.Errorf("%s block %d: delays %v congestion %d max load %d, want %v %d %d",
				name, bi, g.Delays, g.Congestion, g.MaxLoad, w.Delays, w.Congestion, w.MaxLoad)
		}
		if g.LPPivots != w.LPPivots || g.LPRows != w.LPRows || g.LPCols != w.LPCols || g.LPNnz != w.LPNnz {
			t.Errorf("%s block %d: LP counters %d/%d/%d/%d, want %d/%d/%d/%d", name, bi,
				g.LPPivots, g.LPRows, g.LPCols, g.LPNnz, w.LPPivots, w.LPRows, w.LPCols, w.LPNnz)
		}
		if math.Float64bits(g.TStar) != math.Float64bits(w.TStar) ||
			math.Float64bits(g.LowerBound) != math.Float64bits(w.LowerBound) {
			t.Errorf("%s block %d: T* %v lower bound %v, want %v %v",
				name, bi, g.TStar, g.LowerBound, w.TStar, w.LowerBound)
		}
		gr, ge := g.Schedule.Runs()
		wr, we := w.Schedule.Runs()
		if !reflect.DeepEqual(gr, wr) || !slices.Equal(ge, we) {
			t.Errorf("%s block %d: schedule runs differ", name, bi)
		}
	}
	gj, err := json.Marshal(got.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(combined)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gj, wj) {
		t.Errorf("%s: combined schedule JSON differs (%d vs %d bytes)", name, len(gj), len(wj))
	}
}

// goid returns the calling goroutine's id, read from its stack header.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

func TestTwoStageResultsByIndex(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7} {
		caller := goid()
		var firsts []int
		got, err := twoStage(n,
			func(i int) (int, error) {
				if g := goid(); g != caller {
					t.Errorf("n=%d: first(%d) ran on goroutine %s, not the caller's %s", n, i, g, caller)
				}
				firsts = append(firsts, i)
				return i * i, nil
			},
			func(i, v int) (string, error) {
				// Later indices finish sooner, so the helper and the
				// caller finish out of order.
				time.Sleep(time.Duration(n-i) * 100 * time.Microsecond)
				return fmt.Sprint(i, ":", v), nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: %d results", n, len(got))
		}
		for i, s := range got {
			if want := fmt.Sprint(i, ":", i*i); s != want {
				t.Errorf("n=%d: result %d = %q, want %q", n, i, s, want)
			}
		}
		for i, f := range firsts {
			if f != i {
				t.Fatalf("n=%d: first calls ran in order %v", n, firsts)
			}
		}
	}
}

// TestTwoStageEarliestFailureWins fails stages at two indices, in every
// combination of stages, and expects the earlier index's error, from
// whichever stage failed there, as the sequential loop would return.
func TestTwoStageEarliestFailureWins(t *testing.T) {
	const n = 6
	for _, early := range []string{"first", "second"} {
		for _, late := range []string{"first", "second"} {
			errAt := func(stage string, i int) error {
				switch {
				case stage == early && i == 2:
					return fmt.Errorf("%s failed at 2", stage)
				case stage == late && i == 4:
					return fmt.Errorf("%s failed at 4", stage)
				}
				return nil
			}
			var firstCalls atomic.Int32
			_, err := twoStage(n,
				func(i int) (int, error) {
					firstCalls.Add(1)
					return i, errAt("first", i)
				},
				func(i, v int) (int, error) {
					if i == 4 {
						// The failure at 2 must win even when the later
						// one is recorded first.
						return v, errAt("second", i)
					}
					time.Sleep(200 * time.Microsecond)
					return v, errAt("second", i)
				})
			want := early + " failed at 2"
			if err == nil || err.Error() != want {
				t.Errorf("early %s, late %s: error %v, want %q", early, late, err, want)
			}
			if early == "first" && firstCalls.Load() != 3 {
				t.Errorf("early first: %d first calls, want 3 (none after the failure)", firstCalls.Load())
			}
		}
	}
}

func TestTwoStageRaisesPanicOnCaller(t *testing.T) {
	for _, stage := range []string{"first", "second"} {
		for _, n := range []int{1, 4} {
			var running atomic.Int32
			value := func() (v any) {
				defer func() { v = recover() }()
				twoStage(n,
					func(i int) (int, error) {
						if stage == "first" && i == n-1 {
							panic("boom in first")
						}
						return i, nil
					},
					func(i, v int) (int, error) {
						running.Add(1)
						defer running.Add(-1)
						if stage == "second" && i == n-1 {
							panic("boom in second")
						}
						time.Sleep(200 * time.Microsecond)
						return v, nil
					})
				return nil
			}()
			if want := "boom in " + stage; value != want {
				t.Errorf("%s, n=%d: recovered %v, want %q", stage, n, value, want)
			}
			if r := running.Load(); r != 0 {
				t.Errorf("%s, n=%d: %d second calls still running after the panic", stage, n, r)
			}
		}
	}
}

// TestTwoStageWaitsForHelper checks that every second call has
// returned when twoStage does, on success and on failure.
func TestTwoStageWaitsForHelper(t *testing.T) {
	for _, failAt := range []int{-1, 3} {
		var running, done atomic.Int32
		_, err := twoStage(5,
			func(i int) (int, error) {
				if i == failAt {
					return 0, errors.New("lp failed")
				}
				return i, nil
			},
			func(i, v int) (int, error) {
				running.Add(1)
				defer running.Add(-1)
				time.Sleep(time.Millisecond)
				done.Add(1)
				return v, nil
			})
		if (err != nil) != (failAt >= 0) {
			t.Fatalf("failAt %d: error %v", failAt, err)
		}
		want := int32(5)
		if failAt >= 0 {
			want = int32(failAt)
		}
		if r, d := running.Load(), done.Load(); r != 0 || d != want {
			t.Errorf("failAt %d: %d second calls running and %d done at return, want 0 and %d", failAt, r, d, want)
		}
	}
}

func TestTwoStageOneIndexStartsNoGoroutine(t *testing.T) {
	caller := goid()
	// A goroutine still exiting from an earlier test can only lower the
	// count, so a count above the one before the call means twoStage
	// started one.
	before := runtime.NumGoroutine()
	check := func(stage string) {
		if g := goid(); g != caller {
			t.Errorf("%s ran on goroutine %s, not the caller's %s", stage, g, caller)
		}
		if now := runtime.NumGoroutine(); now > before {
			t.Errorf("%s ran with %d goroutines, %d before the call", stage, now, before)
		}
	}
	_, err := twoStage(1,
		func(int) (int, error) {
			check("first")
			return 0, nil
		},
		func(_, v int) (int, error) {
			check("second")
			return v, nil
		})
	if err != nil {
		t.Fatal(err)
	}
}
