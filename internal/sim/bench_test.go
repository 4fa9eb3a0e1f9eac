package sim

import (
	"testing"

	"suu/internal/core"
	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/workload"
)

// benchChains is the reference workload of the engine perf gate: 96
// jobs in 8 chains on 12 machines, scheduled by the full Theorem 4.4
// pipeline. Construction happens outside the timed region; the
// benchmarks below measure pure simulation throughput.
func benchChains(b *testing.B) (*model.Instance, sched.Policy) {
	b.Helper()
	in := workload.Chains(workload.Config{Jobs: 96, Machines: 12, Seed: 1}, 8)
	res, err := core.SUUChains(in, core.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	return in, res.Schedule
}

// BenchmarkEstimate measures sequential Monte Carlo throughput on the
// chains reference workload. reps/s and ns/step are the tracked
// metrics (BENCH_sim.json rows come from the same measurement).
func BenchmarkEstimate(b *testing.B) {
	in, pol := benchChains(b)
	const reps = 32
	totalSteps := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum, _, _ := EstimateParallelInfo(in, pol, reps, 1_000_000, 42, 1)
		totalSteps += sum.Mean * float64(reps)
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(reps*b.N)/s, "reps/s")
		if totalSteps > 0 {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/totalSteps, "ns/step")
		}
	}
}

// BenchmarkEstimateParallel is BenchmarkEstimate fanned out over
// GOMAXPROCS workers.
func BenchmarkEstimateParallel(b *testing.B) {
	in, pol := benchChains(b)
	const reps = 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EstimateParallelInfo(in, pol, reps, 1_000_000, 42, 0)
	}
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(reps*b.N)/s, "reps/s")
	}
}
