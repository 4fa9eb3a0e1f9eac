// Benchmarks — for the experiment tables of exp.Drivers (T1..T3,
// T5..T10, A2, A3) and the figures of cmd/suu-trace (F1, F3). They
// exercise the code paths that regenerate each table at a
// representative size; cmd/suu-bench produces the tables themselves.
package suu

import (
	"math"
	"math/rand"
	"testing"

	"suu/internal/core"
	"suu/internal/exp"
	"suu/internal/model"
	"suu/internal/opt"
	"suu/internal/sim"
	"suu/internal/workload"
)

func benchInstance(n, m int, seed int64) *model.Instance {
	return workload.Independent(workload.Config{Jobs: n, Machines: m, Seed: seed})
}

// BenchmarkMSMAlg (T1): one greedy MaxSumMass assignment.
func BenchmarkMSMAlg(b *testing.B) {
	in := benchInstance(64, 16, 1)
	active := make([]bool, in.N)
	for j := range active {
		active[j] = true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.MSMAlg(in, active)
	}
}

// BenchmarkMassAccumulation (T2): Theorem 2.2 probability estimation
// on a small instance under its optimal regimen.
func BenchmarkMassAccumulation(b *testing.B) {
	in := benchInstance(5, 2, 2)
	reg, topt, err := opt.OptimalRegimen(in)
	if err != nil {
		b.Fatal(err)
	}
	horizon := int(math.Ceil(2 * topt))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.MassWithinHorizon(in, reg, horizon, 100, 0.25, int64(i))
	}
}

// BenchmarkSUUIAdaptive (T3): one simulated run of SUU-I-ALG.
func BenchmarkSUUIAdaptive(b *testing.B) {
	in := benchInstance(32, 8, 3)
	pol := &core.AdaptivePolicy{In: in}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(in, pol, 1_000_000, rand.New(rand.NewSource(int64(i))))
	}
}

// BenchmarkSUUIOblivious (T5's comb columns): constructing the
// combinatorial oblivious schedule.
func BenchmarkSUUIOblivious(b *testing.B) {
	in := benchInstance(32, 8, 4)
	par := core.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SUUIOblivious(in, par); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSUUILP (T5): LP2 solve + rounding + packing.
func BenchmarkSUUILP(b *testing.B) {
	in := benchInstance(32, 8, 5)
	par := core.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SUUIndependentLP(in, par); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSUUChains (T6): the full chains pipeline.
func BenchmarkSUUChains(b *testing.B) {
	in := workload.Chains(workload.Config{Jobs: 24, Machines: 6, Seed: 6}, 4)
	par := core.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SUUChains(in, par); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomDelay (T7): delay search on a chain pseudo-schedule.
func BenchmarkRandomDelay(b *testing.B) {
	in := workload.Chains(workload.Config{Jobs: 48, Machines: 6, Seed: 7}, 8)
	chains, err := in.Prec.Chains()
	if err != nil {
		b.Fatal(err)
	}
	fs, err := core.SolveLP1(in, chains, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	ints, err := core.RoundLP(in, fs, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	pseudo := core.BuildPseudo(in, chains, ints.X)
	maxLoad := pseudo.MaxLoad()
	// Seeding math/rand's source is a sizeable share of one search, so
	// one generator, seeded before the timer starts, serves every
	// iteration.
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pseudo.BestDelays(maxLoad, 64, rng)
	}
}

// BenchmarkSUUTrees (T8): the forest pipeline on an out-tree.
func BenchmarkSUUTrees(b *testing.B) {
	in := workload.OutTree(workload.Config{Jobs: 32, Machines: 6, Seed: 8})
	par := core.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SUUForest(in, par); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSUUForest (T9): the forest pipeline on a mixed forest.
func BenchmarkSUUForest(b *testing.B) {
	in := workload.MixedForest(workload.Config{Jobs: 32, Machines: 6, Seed: 9}, 3)
	par := core.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SUUForest(in, par); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBaselines (T10): one simulated run of each baseline on the
// grid workload.
func BenchmarkBaselines(b *testing.B) {
	in := workload.GridPipeline(20, 6, 10)
	greedy := &core.GreedyMaxPPolicy{In: in}
	rr := &core.RoundRobinPolicy{In: in}
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim.Run(in, greedy, 1_000_000, rand.New(rand.NewSource(int64(i))))
		}
	})
	b.Run("round-robin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim.Run(in, rr, 1_000_000, rand.New(rand.NewSource(int64(i))))
		}
	})
}

// BenchmarkExecTree (F1): Markov-chain/exact-value computation for the
// Figure 1 reproduction.
func BenchmarkExecTree(b *testing.B) {
	in := benchInstance(6, 2, 11)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := opt.OptimalRegimen(in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLP1Round (F3): LP1 solve + Theorem 4.1 rounding with the
// flow network construction.
func BenchmarkLP1Round(b *testing.B) {
	in := workload.Independent(workload.Config{Jobs: 12, Machines: 20, Lo: 0.02, Hi: 0.3, Seed: 12})
	chains := make([][]int, in.N)
	for j := 0; j < in.N; j++ {
		chains[j] = []int{j}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs, err := core.SolveLP1(in, chains, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.RoundLP(in, fs, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDelayAblation (T7's lengths): flatten with and without
// delays.
func BenchmarkDelayAblation(b *testing.B) {
	in := workload.Chains(workload.Config{Jobs: 32, Machines: 6, Seed: 13}, 8)
	chains, _ := in.Prec.Chains()
	fs, err := core.SolveLP1(in, chains, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	ints, err := core.RoundLP(in, fs, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	pseudo := core.BuildPseudo(in, chains, ints.X)
	delays, _ := pseudo.BestDelays(pseudo.MaxLoad(), 64, rand.New(rand.NewSource(1)))
	for _, c := range []struct {
		name   string
		delays []int
	}{{"off", nil}, {"on", delays}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pseudo.Flatten(c.delays)
			}
		})
	}
}

// BenchmarkReplicationSweep (A2): replication cost of the prefix.
func BenchmarkReplicationSweep(b *testing.B) {
	in := benchInstance(16, 5, 14)
	par := core.DefaultParams()
	res, err := core.SUUIndependentLP(in, par)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(in, res.Schedule, 5_000_000, rand.New(rand.NewSource(int64(i))))
	}
}

// BenchmarkBucketAblation (A3): the rounding alone (bucketing + flow).
func BenchmarkBucketAblation(b *testing.B) {
	in := workload.Independent(workload.Config{Jobs: 16, Machines: 32, Lo: 0.02, Hi: 0.3, Seed: 15})
	chains := make([][]int, in.N)
	for j := 0; j < in.N; j++ {
		chains[j] = []int{j}
	}
	fs, err := core.SolveLP1(in, chains, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RoundLP(in, fs, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuickTables runs the two fastest experiment drivers end to
// end, ensuring the harness itself stays cheap.
func BenchmarkQuickTables(b *testing.B) {
	cfg := exp.Config{Quick: true, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exp.T1(cfg)
		exp.T7(cfg)
	}
}
