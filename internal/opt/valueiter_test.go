package opt

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/sim"
	"suu/internal/workload"
)

// randInstance draws a random DAG instance the exhaustive oracle
// accepts, with probability rows mixing 0, 1 and uniform draws so the
// fuzz exercises the stuck, certain and generic arithmetic paths.
func randInstance(rng *rand.Rand) *model.Instance {
	n := 2 + rng.Intn(5) // 2..6
	m := 1 + rng.Intn(3) // 1..3
	in := model.New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			switch rng.Intn(6) {
			case 0:
				in.P[i][j] = 0
			case 1:
				in.P[i][j] = 1
			default:
				in.P[i][j] = rng.Float64()
			}
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.3 {
				in.Prec.MustEdge(u, v)
			}
		}
	}
	return in
}

// TestValueIterationMatchesExhaustiveFuzz is the parity gate of the
// value iteration: on every instance the retained oracle accepts, the
// optimal values must agree within 1e-12 and the returned regimens
// must both achieve that value exactly (identical modulo ties).
func TestValueIterationMatchesExhaustiveFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(20070707))
	for trial := 0; trial < 120; trial++ {
		in := randInstance(rng)
		regOld, vOld, err := OptimalRegimenExhaustive(in)
		if err != nil {
			t.Fatalf("trial %d: oracle: %v", trial, err)
		}
		workers := 1 + rng.Intn(4)
		regNew, vNew, st, err := OptimalRegimenParallel(in, workers)
		if err != nil {
			t.Fatalf("trial %d: value iteration: %v", trial, err)
		}
		if math.IsInf(vOld, 1) != math.IsInf(vNew, 1) {
			t.Fatalf("trial %d: finiteness differs: oracle %v vs VI %v", trial, vOld, vNew)
		}
		if !math.IsInf(vOld, 1) {
			if tol := 1e-12 * math.Max(1, math.Abs(vOld)); math.Abs(vOld-vNew) > tol {
				t.Errorf("trial %d (n=%d m=%d): oracle %.15g vs VI %.15g (|Δ|=%g > %g)",
					trial, in.N, in.M, vOld, vNew, math.Abs(vOld-vNew), tol)
			}
			// Regimens may differ on tied assignments but must be
			// value-identical when evaluated exactly.
			for name, reg := range map[string]*sched.Regimen{"oracle": regOld, "VI": regNew} {
				ev, err := ExactRegimen(in, reg)
				if err != nil {
					t.Fatalf("trial %d: ExactRegimen(%s): %v", trial, name, err)
				}
				if tol := 1e-12 * math.Max(1, math.Abs(vOld)); math.Abs(ev-vOld) > tol {
					t.Errorf("trial %d: %s regimen evaluates to %.15g, optimum is %.15g",
						trial, name, ev, vOld)
				}
			}
		}
		if want := len(closedStates(in)); st.States != want {
			t.Errorf("trial %d: VI saw %d states, oracle scan has %d", trial, st.States, want)
		}
	}
}

// TestValueIterationWorkerBitIdentity pins the determinism story:
// values, regimens and stats must be bit-identical at any pool size.
func TestValueIterationWorkerBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for trial := 0; trial < 12; trial++ {
		// Mid-size forests so layers actually split across workers.
		in := model.New(12, 3)
		for i := 0; i < in.M; i++ {
			for j := 0; j < in.N; j++ {
				in.P[i][j] = 0.05 + 0.9*rng.Float64()
			}
		}
		for v := 1; v < in.N; v++ {
			if rng.Float64() < 0.5 {
				in.Prec.MustEdge(rng.Intn(v), v)
			}
		}
		var ref *sched.Regimen
		var refV float64
		var refStats *Stats
		for _, w := range counts {
			reg, v, st, err := OptimalRegimenParallel(in, w)
			if err != nil {
				t.Fatalf("trial %d workers=%d: %v", trial, w, err)
			}
			if ref == nil {
				ref, refV, refStats = reg, v, st
				continue
			}
			if math.Float64bits(v) != math.Float64bits(refV) {
				t.Errorf("trial %d: workers=%d value %v != workers=%d value %v",
					trial, w, v, counts[0], refV)
			}
			if len(reg.F) != len(ref.F) {
				t.Fatalf("trial %d: regimen size %d != %d", trial, len(reg.F), len(ref.F))
			}
			for s, a := range ref.F {
				b, ok := reg.F[s]
				if !ok || len(a) != len(b) {
					t.Fatalf("trial %d: state %b assignment mismatch", trial, s)
				}
				for i := range a {
					if a[i] != b[i] {
						t.Errorf("trial %d: state %b machine %d: %d vs %d", trial, s, i, b[i], a[i])
					}
				}
			}
			if st.Assignments != refStats.Assignments || st.Pruned != refStats.Pruned ||
				st.Transitions != refStats.Transitions || st.ClosedForm != refStats.ClosedForm {
				t.Errorf("trial %d: workers=%d stats %+v != %+v", trial, w, st, refStats)
			}
		}
	}
}

// chains20 is the ISSUE acceptance instance: 20 jobs in 4 chains of 5,
// 4 machines, heterogeneous probabilities.
func chains20() *model.Instance {
	in := model.New(20, 4)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < in.M; i++ {
		for j := 0; j < in.N; j++ {
			in.P[i][j] = 0.1 + 0.85*rng.Float64()
		}
	}
	for c := 0; c < 4; c++ {
		for k := 0; k < 4; k++ {
			in.Prec.MustEdge(c*5+k, c*5+k+1)
		}
	}
	return in
}

// TestValueIterationChains20 proves the pushed frontier: a 20-job
// chains instance (m=4) — far beyond the oracle's reach — solves to
// optimality in seconds single-core, and the returned regimen
// evaluates exactly to the reported optimum.
func TestValueIterationChains20(t *testing.T) {
	in := chains20()
	start := time.Now()
	reg, v, st, err := OptimalRegimenParallel(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("20-job chains solve took %v, want <5s single-core", el)
	}
	if math.IsInf(v, 1) || v <= 0 {
		t.Fatalf("optimal value %v not finite positive", v)
	}
	if want := 6 * 6 * 6 * 6; st.States != want {
		t.Errorf("states=%d, want 6^4=%d", st.States, want)
	}
	ev, err := ExactRegimen(in, reg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ev-v) > 1e-12*v {
		t.Errorf("returned regimen evaluates to %.15g, solver reported %.15g", ev, v)
	}
	// The optimum cannot beat the sum of best-machine expectations on
	// the longest chain (a crude lower bound) and must beat a greedy
	// freeze (an upper bound).
	greedy, err := GreedyRegimen(in, func(unf, elig []bool) sched.Assignment {
		a := make(sched.Assignment, in.M)
		for i := range a {
			a[i] = sched.Idle
			for j, e := range elig {
				if e && (a[i] == sched.Idle || in.P[i][j] > in.P[i][a[i]]) {
					a[i] = j
				}
			}
		}
		return a
	})
	if err != nil {
		t.Fatal(err)
	}
	gv, err := ExactRegimen(in, greedy)
	if err != nil {
		t.Fatal(err)
	}
	if v > gv+1e-9 {
		t.Errorf("optimal %v exceeds greedy freeze %v", v, gv)
	}
}

// TestExactRegimenWideAntichain pins the trialed-subset evaluation at
// widths the old 2^eligible sum could not touch: 17 independent jobs
// (131072 states) evaluate in well under a second.
func TestExactRegimenWideAntichain(t *testing.T) {
	in := model.New(17, 2)
	for i := 0; i < in.M; i++ {
		for j := 0; j < in.N; j++ {
			in.P[i][j] = 0.5
		}
	}
	// Every machine on the lowest eligible job.
	reg, err := GreedyRegimen(in, func(unf, elig []bool) sched.Assignment {
		a := make(sched.Assignment, in.M)
		for i := range a {
			a[i] = sched.Idle
		}
		for j, e := range elig {
			if e {
				for i := range a {
					a[i] = j
				}
				break
			}
		}
		return a
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := ExactRegimen(in, reg)
	if err != nil {
		t.Fatal(err)
	}
	// Both machines gang one job at a time: q = 1-(1-.5)^2 = .75, so
	// E = 17/.75.
	want := 17 / 0.75
	if math.Abs(v-want) > 1e-9 {
		t.Errorf("sequential gang value %v, want %v", v, want)
	}
}

// exhaust values every leaf below machine i with evalLeaf, in the
// search's lexicographic order: the reference the gain-bound search is
// pinned to.
func (w *viWorker) exhaust(i int) {
	if i == w.m {
		w.evalLeaf()
		return
	}
	row := w.vs.in.P[i]
	for d := 0; d < w.k; d++ {
		saved := w.place(i, d, row[w.el[d]])
		w.exhaust(i + 1)
		w.unplace(d, saved)
	}
}

// fullEnumeration values every one of a state's k^m assignments after
// the greedy warm start (strict <, so the earliest of tied optima wins).
func fullEnumeration(w *viWorker, si int32) {
	if w.begin(si) {
		w.exhaust(0)
		w.finish(si)
	}
}

// solveInOrder solves in's states in lattice order on one worker with
// solve. mapTable puts the worker's successor table in the map that
// states wider than svFlatMaxK use.
func solveInOrder(t *testing.T, in *model.Instance, mapTable bool, solve func(*viWorker, int32)) *viSolver {
	t.Helper()
	lat, err := lattice(in)
	if err != nil {
		t.Fatal(err)
	}
	vs := &viSolver{
		in:      in,
		lat:     lat,
		value:   make([]float64, len(lat.Masks)),
		assigns: make([]sched.Assignment, len(lat.Masks)),
	}
	w := newVIWorker(vs)
	if mapTable {
		w.sv, w.svMap = nil, make(map[uint32]float64)
	}
	for si := int32(1); si < int32(len(lat.Masks)); si++ {
		solve(w, si)
	}
	return vs
}

// randomDAG adds each forward edge u→v with probability density.
func randomDAG(in *model.Instance, rng *rand.Rand, density float64) {
	for u := 0; u < in.N; u++ {
		for v := u + 1; v < in.N; v++ {
			if rng.Float64() < density {
				in.Prec.MustEdge(u, v)
			}
		}
	}
}

// TestGainBoundMatchesFullEnumeration pins the gain-bound search bit
// for bit to valuing every assignment: every state's value and
// assignment, at 1, 2 and 4 workers and on the map-backed successor
// table, on the parity fuzz's instances, on instances built for exact
// ties (p rows of 0, 0.5 and 1, and all-equal p), and on the serving
// and benchmark shapes.
func TestGainBoundMatchesFullEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	type named struct {
		name string
		in   *model.Instance
	}
	var cases []named
	for trial := 0; trial < 60; trial++ {
		cases = append(cases, named{fmt.Sprintf("fuzz-%d", trial), randInstance(rng)})
	}
	for trial := 0; trial < 60; trial++ {
		in := model.New(2+rng.Intn(6), 1+rng.Intn(5))
		for i := range in.P {
			for j := range in.P[i] {
				in.P[i][j] = []float64{0, 0.5, 1}[rng.Intn(3)]
			}
		}
		randomDAG(in, rng, 0.3)
		cases = append(cases, named{fmt.Sprintf("ties-%d", trial), in})
	}
	for trial := 0; trial < 20; trial++ {
		in := model.New(3+rng.Intn(6), 1+rng.Intn(4))
		p := []float64{0.5, 1, 0.3, rng.Float64()}[trial%4]
		for i := range in.P {
			for j := range in.P[i] {
				in.P[i][j] = p
			}
		}
		randomDAG(in, rng, 0.2)
		cases = append(cases, named{fmt.Sprintf("equal-%d", trial), in})
	}
	exact := sim.SeedFor(1, "bench-exact")
	for seed := int64(0); seed < 3; seed++ {
		cases = append(cases, named{fmt.Sprintf("serve-10x3-%d", seed),
			workload.Independent(workload.Config{Jobs: 10, Machines: 3, Seed: 800_000 + seed})})
	}
	cases = append(cases,
		named{"independent-12x4", workload.Independent(workload.Config{Jobs: 12, Machines: 4, Seed: exact})},
		named{"chains-20x4", workload.Chains(workload.Config{Jobs: 20, Machines: 4, Seed: exact}, 5)},
		named{"outforest-17x4", workload.OutTree(workload.Config{Jobs: 17, Machines: 4, Seed: exact})},
	)
	for _, c := range cases {
		ref := solveInOrder(t, c.in, false, fullEnumeration)
		runs := map[string]*viSolver{"map table": solveInOrder(t, c.in, true, (*viWorker).solveState)}
		for _, workers := range []int{1, 2, 4} {
			vs, _, err := solveLattice(c.in, workers)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			runs[fmt.Sprintf("workers=%d", workers)] = vs
		}
		for run, vs := range runs {
			for si, want := range ref.value {
				if got := vs.value[si]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s %s state %b: value %v, full enumeration %v",
						c.name, run, ref.lat.Masks[si], got, want)
				}
				if got, want := vs.assigns[si], ref.assigns[si]; !slices.Equal(got, want) {
					t.Fatalf("%s %s state %b: assignment %v, full enumeration %v",
						c.name, run, ref.lat.Masks[si], got, want)
				}
			}
		}
	}
}

// TestGainBoundLeafCount pins how much the gain bound cuts on the exact
// gate's instances: the leaves valued (greedy warm starts included)
// stay within 5% of Σ_S k_S^m on independent 10×3 and 1% on 12×4, the
// sum over the states the search solves (those with >2 unfinished).
func TestGainBoundLeafCount(t *testing.T) {
	seed := sim.SeedFor(1, "bench-exact")
	for _, c := range []struct {
		jobs, machines int
		share          float64
	}{{10, 3, 0.05}, {12, 4, 0.01}} {
		in := workload.Independent(workload.Config{Jobs: c.jobs, Machines: c.machines, Seed: seed})
		_, _, st, err := OptimalRegimenParallel(in, 1)
		if err != nil {
			t.Fatal(err)
		}
		lat, err := lattice(in)
		if err != nil {
			t.Fatal(err)
		}
		var leaves int64
		for si, s := range lat.Masks {
			if bits.OnesCount64(s) > 2 {
				leaves += powCap(bits.OnesCount64(lat.Elig[si]), in.M, math.MaxInt64)
			}
		}
		t.Logf("independent %dx%d: %d of %d leaves valued (%.2f%%), %d children cut",
			c.jobs, c.machines, st.Assignments, leaves, 100*float64(st.Assignments)/float64(leaves), st.Pruned)
		if float64(st.Assignments) > c.share*float64(leaves) {
			t.Errorf("independent %dx%d: %d of %d leaves valued, want ≤ %.0f%%",
				c.jobs, c.machines, st.Assignments, leaves, 100*c.share)
		}
	}
}
