package sim

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"suu/internal/core"
	"suu/internal/model"
	"suu/internal/opt"
	"suu/internal/sched"
	"suu/internal/stats"
	"suu/internal/workload"
)

// autoShapes are the six precedence classes whose solve.Auto schedules
// the compile and golden pins run: one instance per class, each small
// enough to estimate in milliseconds.
func autoShapes() []struct {
	name string
	in   *model.Instance
} {
	return []struct {
		name string
		in   *model.Instance
	}{
		{"independent", workload.Independent(workload.Config{Jobs: 16, Machines: 4, Seed: 11})},
		{"chains", workload.Chains(workload.Config{Jobs: 18, Machines: 4, Seed: 12}, 3)},
		{"out-forest", workload.OutTree(workload.Config{Jobs: 16, Machines: 4, Seed: 13})},
		{"in-forest", workload.InTree(workload.Config{Jobs: 16, Machines: 4, Seed: 14})},
		{"mixed forest", workload.MixedForest(workload.Config{Jobs: 18, Machines: 4, Seed: 15}, 3)},
		{"layered", workload.LayeredWidth(workload.Config{Jobs: 16, Machines: 4, Seed: 16}, 4, 0.3)},
	}
}

// goldenForms are the compiled oblivious walks the golden pin reads,
// each rendered as a string that changes if any bit of its result
// does: the summary's fields, the incomplete count and the engine
// record.
var goldenForms = []struct {
	name string
	run  func(in *model.Instance, o *sched.Oblivious) string
}{
	{"scalar walk", func(in *model.Instance, o *sched.Oblivious) string {
		return renderEstimate(EstimateParallelInfo(in, o, 200, 1<<20, 3, 2))
	}},
	// 1000 repetitions end in a partial group of 40 lanes.
	{"lane walk", func(in *model.Instance, o *sched.Oblivious) string {
		return renderEstimate(EstimateParallelInfo(in, o, 1000, 1<<20, 4, 2))
	}},
	{"capped scalar walk", func(in *model.Instance, o *sched.Oblivious) string {
		cap := medianCap(in, o)
		return fmt.Sprint(cap, " ", renderEstimate(EstimateParallelInfo(in, o, 100, cap, 5, 1)))
	}},
	{"capped lane walk", func(in *model.Instance, o *sched.Oblivious) string {
		cap := medianCap(in, o)
		return fmt.Sprint(cap, " ", renderEstimate(EstimateParallelInfo(in, o, 300, cap, 5, 1)))
	}},
	{"scalar tail", func(in *model.Instance, o *sched.Oblivious) string {
		return renderEstimate(EstimateParallelInfo(in, prefixOf(o, 10), 100, 1<<20, 6, 2))
	}},
	{"lane tail", func(in *model.Instance, o *sched.Oblivious) string {
		return renderEstimate(EstimateParallelInfo(in, prefixOf(o, 10), 300, 1<<20, 6, 2))
	}},
	{"Prepared", func(in *model.Instance, o *sched.Oblivious) string {
		p := Prepare(in, o)
		return renderEstimate(p.EstimateParallelInfo(100, 1<<20, 9, 1)) + " " +
			renderEstimate(p.EstimateParallelInfo(700, 1<<20, 9, 2))
	}},
}

// medianCap is a step cap inside the prefix that strands about half of
// the repetitions: the median makespan of an uncapped walk, or the
// prefix's last step if that is sooner.
func medianCap(in *model.Instance, o *sched.Oblivious) int {
	qs, _ := MakespanQuantilesParallel(in, o, 100, 1<<20, 5, []float64{0.5}, 1)
	return min(int(qs[0]), o.Len()-1)
}

// renderEstimate prints an estimate's summary fields as bits, with its
// incomplete count and engine record.
func renderEstimate(sum stats.Summary, inc int, eng EngineUsed) string {
	return fmt.Sprintf("%d %x %d %+v", sum.N, bitsOf(sum.Mean, sum.StdDev, sum.Min, sum.Max, sum.HalfWidth95), inc, eng)
}

// goldenDigests are the FNV-64a digests of every golden form on every
// shape, recorded when the compile still wrote one table entry per
// occurrence. A change that moves one draw moves its digest.
var goldenDigests = map[string][]uint64{
	"independent": {
		0x58eee40ac4db51f8, 0x9621a76f46218a64, 0x0e44ec1b76f55860,
		0xd43d8637648492d1, 0x9fe6c3ed07943bfa, 0xdeba687dd2b5f6a9,
		0xf3a15a89a5c6c42e,
	},
	"chains": {
		0xe3334e0acbb4dd0c, 0x8337dbe833bce9f1, 0x746341e5f821e218,
		0x7e52a6ab0c8a4c51, 0xcbb6d947138bfc29, 0x7204d607b89192bb,
		0xaa1efee48ad75769,
	},
	"out-forest": {
		0xb02327632604506c, 0xb8dd02daa60a1727, 0x2604e656fb359472,
		0x990830077750dca1, 0x20f406fcf345f177, 0x27251c4f082ca5a8,
		0x0c5c912a969dfee0,
	},
	"in-forest": {
		0x3e28b158dc147cde, 0x03475d35d1a1e30a, 0x25cb8c56cd000989,
		0x5a5e5830df5de9a4, 0x38f7fb747e036e9f, 0x855a8768425dac33,
		0x8b0e43f2813264d6,
	},
	"mixed forest": {
		0xe04b05e1cf9366ab, 0x20a07a62814eef1a, 0x9b3d61184e0592dd,
		0x24000e18540efd03, 0x83016f2e011ed7c3, 0x5aa9c22a59f39598,
		0xd2f53cf81ef9c42e,
	},
	"layered": {
		0x6c8c568b36573910, 0xdf046374a0f13265, 0xc7f5f8c1a6ac7e18,
		0xfd4b0c29208017bf, 0xab92e32470ac40dd, 0xd38b9b3c713e1cad,
		0x7a815202ab09cad3,
	},
}

// TestCompiledDrawsGolden pins the compiled oblivious walks' draws
// across changes of the compiled tables: every form on every shape
// gives the digest recorded before the tables held runs.
func TestCompiledDrawsGolden(t *testing.T) {
	for _, s := range autoShapes() {
		o := autoOblivious(t, s.in)
		want := goldenDigests[s.name]
		for f, form := range goldenForms {
			got := form.run(s.in, o)
			h := fnv.New64a()
			h.Write([]byte(got))
			if f >= len(want) || h.Sum64() != want[f] {
				t.Errorf("%s, %s: digest %#016x of\n%s", s.name, form.name, h.Sum64(), got)
			}
		}
	}
}

// massGoldenDigests are the FNV-64a digests of the fraction bits of
// each TestMassWithinHorizonGolden case, recorded while the compiled
// adaptive walk still accumulated its own mass.
var massGoldenDigests = []uint64{
	0x3bd9f29befd9c44e, 0x8674255b6b6f6ea7, 0xa1e9e757fe65d650,
	0xd0ee8c1e5e8135b3, 0x05cb0856bff93658, 0x79527e8fd6fdabba,
}

// TestMassWithinHorizonGolden pins MassWithinHorizon's fractions bit
// for bit on T2's four quick cells (the optimal regimen on an
// independent instance, horizon ⌈2·T_OPT⌉, 2,400 repetitions,
// threshold 1/4, T2's seeds at root seed 1) and on the MSM greedy on
// independent 10×3 at two thresholds.
func TestMassWithinHorizonGolden(t *testing.T) {
	var fractions [][]float64
	for _, nm := range [][2]int{{3, 2}, {4, 2}, {5, 3}, {6, 2}} {
		seed := SeedFor(1, "T2", int64(nm[0]), int64(nm[1]))
		in := workload.Independent(workload.Config{Jobs: nm[0], Machines: nm[1], Seed: seed})
		reg, topt, err := opt.OptimalRegimen(in)
		if err != nil {
			t.Fatal(err)
		}
		horizon := int(math.Ceil(2 * topt))
		fractions = append(fractions, MassWithinHorizon(in, reg, horizon, 2400, 0.25, SeedFor(seed, "sim")))
	}
	in := workload.Independent(workload.Config{Jobs: 10, Machines: 3, Seed: 42})
	pol := &core.AdaptivePolicy{In: in}
	for _, threshold := range []float64{0.25, 1.0} {
		fractions = append(fractions, MassWithinHorizon(in, pol, 12, 2000, threshold, 31))
	}
	for k, fr := range fractions {
		got := fmt.Sprintf("%x", bitsOf(fr...))
		h := fnv.New64a()
		h.Write([]byte(got))
		if k >= len(massGoldenDigests) || h.Sum64() != massGoldenDigests[k] {
			t.Errorf("case %d: digest %#016x of %s", k, h.Sum64(), got)
		}
	}
}
