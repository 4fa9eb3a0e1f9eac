package core

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"suu/internal/maxflow"
	"suu/internal/model"
)

// IntSolution is the integral rounding of a fractional (LP1)/(LP2)
// solution (Theorem 4.1): integral step counts per (machine, job) with
// per-job mass at least the target, and load/window lengths within an
// O(log m) factor of the fractional optimum.
type IntSolution struct {
	// Jobs is the job scope (copied from the fractional solution).
	Jobs []int
	// X[i][j] is the integral number of steps machine i spends on job j.
	X [][]int
	// Scale is the pre-flow scale-up S applied to the fractional
	// solution (32 in the paper's proof, raised when needed to make
	// every flow demand at least one unit).
	Scale int
	// Lambda is the post-flow lift restoring the mass target.
	Lambda int
	// RoundedUp counts jobs handled by the direct round-up case,
	// FlowJobs those routed through the flow network.
	RoundedUp, FlowJobs int
	// Flow is a printable description of the constructed network
	// (Figure 3 of the paper); empty when no flow was needed.
	Flow *FlowDump
}

// FlowDump records the rounding's flow network for inspection — the
// reproduction of Figure 3.
type FlowDump struct {
	JobNodes     []int   // job ids in network order
	Demands      []int64 // D_j per job node
	EdgeJob      []int   // per arc: job id
	EdgeMachine  []int   // per arc: machine id
	EdgeCap      []int64
	EdgeFlow     []int64
	MachineCap   int64 // capacity of every machine→sink arc
	TotalDemand  int64
	RoutedDemand int64
}

// String renders the network in the layout of Figure 3.
func (f *FlowDump) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "flow network (u → jobs → machines → v), demand %d routed %d\n", f.TotalDemand, f.RoutedDemand)
	for k, j := range f.JobNodes {
		fmt.Fprintf(&b, "  u -(%d)-> job %d\n", f.Demands[k], j)
	}
	for e := range f.EdgeJob {
		fmt.Fprintf(&b, "  job %d -(cap %d, flow %d)-> machine %d\n",
			f.EdgeJob[e], f.EdgeCap[e], f.EdgeFlow[e], f.EdgeMachine[e])
	}
	fmt.Fprintf(&b, "  machine i -(%d)-> v for every machine\n", f.MachineCap)
	return b.String()
}

// Load returns the maximum machine load Σ_j X[i][j].
func (s *IntSolution) Load() int {
	max := 0
	for i := range s.X {
		l := 0
		for _, c := range s.X[i] {
			l += c
		}
		if l > max {
			max = l
		}
	}
	return max
}

// MinMass returns the minimum per-job achieved mass Σ_i p_ij·X[i][j]
// over the scope.
func (s *IntSolution) MinMass(in *model.Instance) float64 {
	min := math.Inf(1)
	for _, j := range s.Jobs {
		m := 0.0
		for i := 0; i < in.M; i++ {
			m += float64(s.X[i][j]) * in.P[i][j]
		}
		if m < min {
			min = m
		}
	}
	return min
}

// RoundLP rounds a fractional solution to integers following the proof
// of Theorem 4.1.
//
// Case t ≥ q (q = |scope|): every positive x_ij is rounded up, which
// at most doubles the load bound.
//
// Case t < q: per job, if the entries with x_ij ≥ 1 already carry mass
// ≥ target/2 they are rounded up; otherwise the sub-unit entries with
// p_ij ≥ 1/(8m) are bucketed by probability into (2^{-(b+1)}, 2^{-b}],
// light buckets (Σx < 1/32) are discarded, the heaviest surviving
// bucket is kept, the whole solution is scaled by S = max(32,
// per-job demand repair) and an integral max flow on the network
// u →(D_j) job →(⌈S·d_j⌉) machine →(⌈2·S·t⌉) v extracts integral
// counts (Ford–Fulkerson integrality). A final lift λ restores per-job
// mass ≥ target. S·λ = O(log m), matching the theorem.
func RoundLP(in *model.Instance, fs *FracSolution, target float64) (*IntSolution, error) {
	q := len(fs.Jobs)
	out := &IntSolution{
		Jobs:   append([]int(nil), fs.Jobs...),
		X:      make([][]int, in.M),
		Scale:  1,
		Lambda: 1,
	}
	flat := make([]int, in.M*in.N)
	for i := range out.X {
		out.X[i] = flat[i*in.N : (i+1)*in.N : (i+1)*in.N]
	}

	if fs.T >= float64(q) {
		for i := 0; i < in.M; i++ {
			for _, j := range fs.Jobs {
				if fs.X[i][j] > 1e-12 {
					out.X[i][j] = int(math.Ceil(fs.X[i][j]))
				}
			}
		}
		out.RoundedUp = q
		return finishRound(in, out, target)
	}

	// A flow job's chosen bucket is machines[lo:hi]: every flow shares
	// one machine list.
	type flowJob struct {
		j      int
		lo, hi int
		sum    float64
		demand int64
	}
	flows := make([]flowJob, 0, q)
	var machines []int
	// sums[b] accumulates one job's sub-unit x_ij over bucket b. Every
	// bucketed p_ij is at least pmin = 1/(8m), so b ≤ ⌊log₂ 8m⌋.
	pmin := 1 / (8 * float64(in.M))
	var bucketSums [64]float64
	sums := bucketSums[:bits.Len(uint(8*in.M))]

	for _, j := range fs.Jobs {
		heavyMass := 0.0
		for i := 0; i < in.M; i++ {
			if fs.X[i][j] >= 1 {
				heavyMass += in.P[i][j] * fs.X[i][j]
			}
		}
		if heavyMass >= target/2 {
			for i := 0; i < in.M; i++ {
				if fs.X[i][j] >= 1 {
					out.X[i][j] = int(math.Ceil(fs.X[i][j]))
				}
			}
			out.RoundedUp++
			continue
		}
		// Bucket the sub-unit entries with p_ij ≥ 1/(8m).
		clear(sums)
		for i := 0; i < in.M; i++ {
			if b := subUnitBucket(fs.X[i][j], in.P[i][j], pmin); b >= 0 {
				sums[b] += fs.X[i][j]
			}
		}
		// Scan buckets in index order: lower-bound ties are exact more
		// often than they look (halving the bucket's least p against a
		// doubled sum is exact in float64), so the order decides which
		// bucket wins a tie, and with it the rounded schedule.
		bestLB := 0.0
		best := -1
		for b, sumX := range sums {
			if sumX < 1.0/32 {
				continue // light (or empty) bucket, discarded as in the proof
			}
			if lb := sumX * math.Exp2(-float64(b+1)); lb > bestLB {
				bestLB = lb
				best = b
			}
		}
		if best < 0 {
			// Defensive fallback (outside the proof's constants): round
			// everything positive up; mass ≥ target is immediate.
			for i := 0; i < in.M; i++ {
				if fs.X[i][j] > 1e-12 {
					out.X[i][j] = int(math.Ceil(fs.X[i][j]))
				}
			}
			out.RoundedUp++
			continue
		}
		lo := len(machines)
		for i := 0; i < in.M; i++ {
			if subUnitBucket(fs.X[i][j], in.P[i][j], pmin) == best {
				machines = append(machines, i)
			}
		}
		flows = append(flows, flowJob{j: j, lo: lo, hi: len(machines), sum: sums[best]})
	}

	if len(flows) == 0 {
		return finishRound(in, out, target)
	}
	out.FlowJobs = len(flows)

	// Scale S: the paper's constant 32, raised so every demand is ≥ 2
	// units (which keeps the floor loss a constant factor).
	S := 32.0
	for _, f := range flows {
		if need := 2 / f.sum; need > S {
			S = need
		}
	}
	out.Scale = int(math.Ceil(S))
	Sf := float64(out.Scale)

	// Build the network of Figure 3.
	F := len(flows)
	E := len(machines)
	g := maxflow.New(2 + F + in.M)
	// One edge per flow job, one per bucket arc, one per machine.
	g.Reserve(F + E + in.M)
	src, dst := 0, 1+F+in.M
	jobNode := func(k int) int { return 1 + k }
	machNode := func(i int) int { return 1 + F + i }
	machineCap := int64(math.Ceil(2 * Sf * fs.T))
	dump := &FlowDump{
		JobNodes:    make([]int, 0, F),
		Demands:     make([]int64, 0, F),
		EdgeJob:     make([]int, 0, E),
		EdgeMachine: make([]int, 0, E),
		EdgeCap:     make([]int64, 0, E),
		EdgeFlow:    make([]int64, 0, E),
		MachineCap:  machineCap,
	}
	demandEdges := make([]int, 0, F)
	arcIDs := make([]int, 0, E)
	for k := range flows {
		f := &flows[k]
		f.demand = int64(math.Floor(Sf * f.sum))
		if f.demand < 1 {
			f.demand = 1
		}
		demandEdges = append(demandEdges, g.AddEdge(src, jobNode(k), f.demand))
		dump.JobNodes = append(dump.JobNodes, f.j)
		dump.Demands = append(dump.Demands, f.demand)
		dump.TotalDemand += f.demand
		for _, i := range machines[f.lo:f.hi] {
			cap := int64(math.Ceil(Sf * fs.D[f.j]))
			if cap < 1 {
				cap = 1
			}
			id := g.AddEdge(jobNode(k), machNode(i), cap)
			arcIDs = append(arcIDs, id)
			dump.EdgeJob = append(dump.EdgeJob, f.j)
			dump.EdgeMachine = append(dump.EdgeMachine, i)
			dump.EdgeCap = append(dump.EdgeCap, cap)
		}
	}
	for i := 0; i < in.M; i++ {
		g.AddEdge(machNode(i), dst, machineCap)
	}
	routed := g.MaxFlow(src, dst)
	dump.RoutedDemand = routed
	for e := range dump.EdgeJob {
		dump.EdgeFlow = append(dump.EdgeFlow, g.Flow(arcIDs[e]))
	}
	out.Flow = dump
	for e := range dump.EdgeJob {
		out.X[dump.EdgeMachine[e]][dump.EdgeJob[e]] += int(dump.EdgeFlow[e])
	}
	if routed < dump.TotalDemand {
		// The feasibility argument of Theorem 4.1 guarantees full
		// routing; reaching here indicates a numerical corner. Repair by
		// rounding the affected jobs up directly.
		for k := range flows {
			if g.Flow(demandEdges[k]) < flows[k].demand {
				j := flows[k].j
				for i := 0; i < in.M; i++ {
					if fs.X[i][j] > 1e-12 {
						ceilX := int(math.Ceil(fs.X[i][j]))
						if ceilX > out.X[i][j] {
							out.X[i][j] = ceilX
						}
					}
				}
			}
		}
	}
	return finishRound(in, out, target)
}

// subUnitBucket returns the bucket b = ⌊−log₂ p⌋ of a sub-unit entry
// (1e-12 < x < 1 with p ≥ pmin), so p ∈ (2^{-(b+1)}, 2^{-b}], or -1 for
// an entry outside every bucket.
func subUnitBucket(x, p, pmin float64) int {
	if x <= 1e-12 || x >= 1 || p < pmin {
		return -1
	}
	return max(int(math.Floor(-math.Log2(p))), 0)
}

// finishRound computes the lift λ restoring mass ≥ target for every
// job in scope and applies it.
func finishRound(in *model.Instance, out *IntSolution, target float64) (*IntSolution, error) {
	minMass := out.MinMass(in)
	if minMass <= 0 {
		return nil, fmt.Errorf("core: rounding produced a zero-mass job (min mass %v)", minMass)
	}
	lambda := 1
	if minMass < target {
		lambda = int(math.Ceil(target / minMass))
	}
	if lambda > 1 {
		for i := range out.X {
			for j := range out.X[i] {
				out.X[i][j] *= lambda
			}
		}
	}
	out.Lambda = lambda
	return out, nil
}
