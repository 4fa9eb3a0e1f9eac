package core

import (
	"testing"

	"suu/internal/model"
	"suu/internal/sim"
	"suu/internal/workload"
)

// Construction benchmarks on the bench harness's reference instances
// (same seeds as exp.SolverBuildBenchmarks), so `go test -bench` and
// BENCH_sim.json measure the same work. The LP solve dominates both;
// run with -benchmem to watch the allocation trajectory.

func BenchmarkChainsBuild48(b *testing.B) {
	seed := sim.SeedFor(1, "bench-build/chains")
	in := workload.Chains(workload.Config{Jobs: 48, Machines: 8, Seed: seed}, 4)
	par := DefaultParams()
	par.Seed = sim.SeedFor(seed, "build")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SUUChains(in, par); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkForestBuild48(b *testing.B) {
	seed := sim.SeedFor(1, "bench-build/forest")
	in := workload.OutTree(workload.Config{Jobs: 48, Machines: 8, Seed: seed})
	par := DefaultParams()
	par.Seed = sim.SeedFor(seed, "build")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SUUForest(in, par); err != nil {
			b.Fatal(err)
		}
	}
}

// The static-oblivious workload's other multi-block forest shapes, at
// its sizes: in-forest 64×8 (rank-in), mixed forest 96×12 with 8
// components (per-component) and layered 64×8 of width 8 (level). Each
// iteration builds a different instance of a fixed 16-instance pool,
// so the number rests on more than one block count.

func BenchmarkForestBuildInForest64(b *testing.B) {
	benchForestBuild(b, "bench-build/in-forest", 64, 8, workload.InTree)
}

func BenchmarkForestBuildMixedForest96(b *testing.B) {
	benchForestBuild(b, "bench-build/mixed-forest", 96, 12, func(c workload.Config) *model.Instance {
		return workload.MixedForest(c, 8)
	})
}

func BenchmarkForestBuildLayered64(b *testing.B) {
	benchForestBuild(b, "bench-build/layered", 64, 8, func(c workload.Config) *model.Instance {
		return workload.LayeredWidth(c, 8, 0.2)
	})
}

func benchForestBuild(b *testing.B, name string, jobs, machines int, gen func(workload.Config) *model.Instance) {
	const pool = 16
	seed := sim.SeedFor(1, name)
	ins := make([]*model.Instance, pool)
	for k := range ins {
		ins[k] = gen(workload.Config{Jobs: jobs, Machines: machines, Seed: seed + int64(k)})
	}
	par := DefaultParams()
	par.Seed = sim.SeedFor(seed, "build")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SUUForest(ins[i%pool], par); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveLP1Sparse256(b *testing.B) {
	in := workload.Chains(workload.Config{Jobs: 256, Machines: 8, Seed: 1}, 16)
	chains, err := in.Prec.Chains()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveLP1(in, chains, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveLP2Sparse512(b *testing.B) {
	in := workload.Independent(workload.Config{Jobs: 512, Machines: 16, Seed: 1})
	jobs := make([]int, in.N)
	for j := range jobs {
		jobs[j] = j
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SolveLP2(in, jobs, 0.5); err != nil {
			b.Fatal(err)
		}
	}
}
