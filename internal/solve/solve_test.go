package solve

import (
	"strings"
	"testing"

	"suu/internal/core"
	"suu/internal/dag"
	"suu/internal/sched"
	"suu/internal/sim"
	"suu/internal/workload"
)

func par(seed int64) core.Params {
	p := core.DefaultParams()
	p.Seed = seed
	return p
}

func TestRegistryCatalogue(t *testing.T) {
	want := []string{
		"lp-oblivious", "chains", "forest", "comb-oblivious",
		"adaptive", "learning", "optimal",
		"greedy-maxp", "round-robin", "all-on-one", "random",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d solvers %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("IDs()[%d] = %q, want %q", i, got[i], want[i])
		}
	}
	if _, ok := Get("greedy"); !ok {
		t.Error("alias greedy not resolvable")
	}
	if _, ok := Get("nope"); ok {
		t.Error("unknown id resolved")
	}
	if s, _ := Get("learning"); s.Parallelizable {
		t.Error("learning must be marked non-parallelizable (outcome observer)")
	}
	if s, _ := Get("random"); !s.Parallelizable {
		t.Error("random must be marked parallelizable (its draws are a pure function of seed, step and eligible set)")
	}
}

// TestParallelizableConsistentWithEngine pins the registry metadata to
// the engine's runtime check: a solver marked parallelizable must
// build policies sim.Parallelizable accepts.
func TestParallelizableConsistentWithEngine(t *testing.T) {
	small := workload.Independent(workload.Config{Jobs: 4, Machines: 2, Seed: 3})
	for _, s := range All() {
		in := small
		if !s.AppliesTo(dag.ClassIndependent) {
			in = workload.Chains(workload.Config{Jobs: 6, Machines: 2, Seed: 3}, 2)
		}
		res, err := s.Build(in, par(5))
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if s.Parallelizable && !sim.Parallelizable(res.Policy) {
			t.Errorf("%s: registry says parallelizable but the engine would serialize it", s.ID)
		}
	}
}

// TestCompilableConsistentWithPolicyInterfaces pins which built
// policies the compiled adaptive engine accepts (sched.Memoizable):
// the MSM greedy and the optimal regimen compile, the live learner
// never does, and every memoizable policy is an immutable table the
// registry lets fan out.
func TestCompilableConsistentWithPolicyInterfaces(t *testing.T) {
	small := workload.Independent(workload.Config{Jobs: 4, Machines: 2, Seed: 3})
	memoizable := map[string]bool{}
	for _, s := range All() {
		in := small
		if !s.AppliesTo(dag.ClassIndependent) {
			in = workload.Chains(workload.Config{Jobs: 6, Machines: 2, Seed: 3}, 2)
		}
		res, err := s.Build(in, par(5))
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		_, memoizable[s.ID] = res.Policy.(sched.Memoizable)
		if memoizable[s.ID] && !s.Parallelizable {
			t.Errorf("%s: memoizable policies are immutable tables and must be parallelizable", s.ID)
		}
	}
	for id, want := range map[string]bool{"adaptive": true, "optimal": true, "learning": false} {
		if memoizable[id] != want {
			t.Errorf("%s: built policy memoizable=%v, want %v", id, memoizable[id], want)
		}
	}
}

func TestStrongestMatchesPaperDispatch(t *testing.T) {
	cases := []struct {
		class dag.Class
		want  string
	}{
		{dag.ClassIndependent, "lp-oblivious"},
		{dag.ClassChains, "chains"},
		{dag.ClassOutForest, "forest"},
		{dag.ClassInForest, "forest"},
		{dag.ClassMixedForest, "forest"},
		{dag.ClassGeneral, "forest"},
	}
	for _, tc := range cases {
		s, err := Strongest(tc.class)
		if err != nil {
			t.Fatalf("%s: %v", tc.class, err)
		}
		if s.ID != tc.want {
			t.Errorf("Strongest(%s) = %s, want %s", tc.class, s.ID, tc.want)
		}
	}
}

func TestEverySolverBuildsOnItsClasses(t *testing.T) {
	small := workload.Independent(workload.Config{Jobs: 4, Machines: 2, Seed: 3})
	chains := workload.Chains(workload.Config{Jobs: 6, Machines: 2, Seed: 3}, 2)
	tree := workload.OutTree(workload.Config{Jobs: 6, Machines: 2, Seed: 3})
	for _, s := range All() {
		in := small
		if !s.AppliesTo(dag.ClassIndependent) {
			in = chains
		}
		if s.ID == "forest" {
			in = tree
		}
		res, err := s.Build(in, par(5))
		if err != nil {
			t.Fatalf("%s: %v", s.ID, err)
		}
		if res.Policy == nil || res.Kind == "" || res.Guarantee == "" {
			t.Fatalf("%s: incomplete result %+v", s.ID, res)
		}
		if s.Oblivious && res.Adaptive {
			t.Errorf("%s: oblivious solver produced adaptive result", s.ID)
		}
		// Every built policy must finish a small instance.
		sum, incomplete, _ := sim.EstimateParallelInfo(in, res.Policy, 30, 200000, 7, 1)
		if incomplete != 0 {
			t.Errorf("%s: %d incomplete runs", s.ID, incomplete)
		}
		if sum.Mean < 1 {
			t.Errorf("%s: mean makespan %v < 1", s.ID, sum.Mean)
		}
	}
}

func TestAutoBuildsStrongest(t *testing.T) {
	in := workload.Chains(workload.Config{Jobs: 6, Machines: 2, Seed: 11}, 2)
	s, res, err := Auto(in, par(11))
	if err != nil {
		t.Fatal(err)
	}
	if s.ID != "chains" {
		t.Errorf("auto picked %s for chains class", s.ID)
	}
	if res.Kind != "chains (Thm 4.4)" {
		t.Errorf("kind = %q", res.Kind)
	}
	if res.LowerBound <= 0 || res.PrefixLen <= 0 {
		t.Errorf("missing diagnostics: %+v", res)
	}
}

func TestForestKindTracksClass(t *testing.T) {
	tree := workload.OutTree(workload.Config{Jobs: 6, Machines: 2, Seed: 3})
	s, _ := Get("forest")
	res, err := s.Build(tree, par(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != "trees (Thm 4.8)" {
		t.Errorf("kind = %q on an out-tree", res.Kind)
	}
	if res.Blocks <= 0 || res.Decomp == "" {
		t.Errorf("decomposition diagnostics missing: %+v", res)
	}
	layered := workload.Layered(workload.Config{Jobs: 8, Machines: 3, Seed: 4}, 3, 0.5)
	if layered.Prec.Classify() == dag.ClassGeneral {
		res, err = s.Build(layered, par(4))
		if err != nil {
			t.Fatal(err)
		}
		if res.Kind != "level-fallback" {
			t.Errorf("kind = %q on a general dag", res.Kind)
		}
	}
}

func TestDescribeListsEverySolver(t *testing.T) {
	text := Describe()
	for _, id := range IDs() {
		if !strings.Contains(text, id) {
			t.Errorf("Describe() missing %s", id)
		}
	}
	if !strings.Contains(text, "greedy") {
		t.Error("Describe() missing alias note")
	}
	if !strings.Contains(text, "Thm 4.4") {
		t.Error("Describe() missing theorem column")
	}
}

func TestRegisterRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	Register(Solver{ID: "chains", Build: buildChains})
}
