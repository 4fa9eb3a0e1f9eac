package core

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"suu/internal/model"
	"suu/internal/sched"
)

// refJob is what the rounding's per-job case analysis decides for one
// job: round up (heavy entries, or no surviving bucket), or route the
// chosen bucket's machines, carrying the sum of their x, through the
// flow.
type refJob struct {
	j        int
	roundUp  bool
	machines []int
	sum      float64
}

// mapSortBuckets is RoundLP's bucket scan as a map of buckets scanned
// in sorted key order, kept as the reference for the fixed-array scan.
func mapSortBuckets(in *model.Instance, fs *FracSolution, target float64) []refJob {
	var out []refJob
	for _, j := range fs.Jobs {
		heavyMass := 0.0
		for i := 0; i < in.M; i++ {
			if fs.X[i][j] >= 1 {
				heavyMass += in.P[i][j] * fs.X[i][j]
			}
		}
		if heavyMass >= target/2 {
			out = append(out, refJob{j: j, roundUp: true})
			continue
		}
		pmin := 1 / (8 * float64(in.M))
		type bucket struct {
			machines []int
			sumX     float64
			minP     float64
		}
		buckets := map[int]*bucket{}
		for i := 0; i < in.M; i++ {
			x, p := fs.X[i][j], in.P[i][j]
			if x <= 1e-12 || x >= 1 || p < pmin {
				continue
			}
			b := int(math.Floor(-math.Log2(p)))
			if b < 0 {
				b = 0
			}
			bk := buckets[b]
			if bk == nil {
				bk = &bucket{minP: math.Exp2(-float64(b + 1))}
				buckets[b] = bk
			}
			bk.machines = append(bk.machines, i)
			bk.sumX += x
		}
		keys := make([]int, 0, len(buckets))
		for b := range buckets {
			keys = append(keys, b)
		}
		sort.Ints(keys)
		bestLB := 0.0
		var best *bucket
		for _, b := range keys {
			bk := buckets[b]
			if bk.sumX < 1.0/32 {
				continue
			}
			if lb := bk.sumX * bk.minP; lb > bestLB {
				bestLB, best = lb, bk
			}
		}
		if best == nil {
			out = append(out, refJob{j: j, roundUp: true})
			continue
		}
		out = append(out, refJob{j: j, machines: best.machines, sum: best.sumX})
	}
	return out
}

// bucketEdgeFrac draws an instance and a fractional solution that
// stress the bucket scan: probabilities on the bucket edges 2^−b (b up
// to ⌊log₂ 8m⌋, so 1/(8m) itself for m a power of two), just inside
// and just outside them, at and below 1/(8m); sub-unit x in powers of
// two, so sums over two buckets tie exactly in their lower bound
// (x·2^−(b+1) against 2x·2^−(b+2)); and some heavy, tiny and zero
// entries.
func bucketEdgeFrac(rng *rand.Rand) (*model.Instance, *FracSolution) {
	m := 1 + rng.Intn(16)
	n := 1 + rng.Intn(12)
	in := model.New(n, m)
	pmin := 1 / (8 * float64(m))
	top := int(math.Floor(math.Log2(8 * float64(m))))
	fs := &FracSolution{X: make([][]float64, m), D: make([]float64, n), T: 0.5}
	for i := range fs.X {
		fs.X[i] = make([]float64, n)
	}
	for j := 0; j < n; j++ {
		fs.Jobs = append(fs.Jobs, j)
		fs.D[j] = 1
		for i := 0; i < m; i++ {
			edge := math.Exp2(-float64(rng.Intn(top + 1)))
			switch rng.Intn(6) {
			case 0:
				in.P[i][j] = edge
			case 1:
				in.P[i][j] = math.Nextafter(edge, 0)
			case 2:
				in.P[i][j] = math.Min(1, math.Nextafter(edge, 1))
			case 3:
				in.P[i][j] = pmin
			case 4:
				in.P[i][j] = math.Nextafter(pmin, 0)
			default:
				in.P[i][j] = rng.Float64()
			}
			switch rng.Intn(8) {
			case 0:
				fs.X[i][j] = 1 + float64(rng.Intn(3))
			case 1:
				fs.X[i][j] = 1e-13
			case 2:
				fs.X[i][j] = 0
			case 3:
				fs.X[i][j] = rng.Float64()
			default:
				fs.X[i][j] = math.Exp2(-float64(1 + rng.Intn(6)))
			}
		}
	}
	return in, fs
}

// TestRoundLPMatchesMapSortBuckets checks the fixed-array bucket scan
// against the map-and-sort reference: which jobs round up, which
// route through the flow and with which bucket's machines, and the
// scale and demands those buckets set.
func TestRoundLPMatchesMapSortBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(2211))
	ties, flows := 0, 0
	for trial := 0; trial < 3000; trial++ {
		in, fs := bucketEdgeFrac(rng)
		target := []float64{0.5, 1, 2}[trial%3]
		ref := mapSortBuckets(in, fs, target)
		got, err := RoundLP(in, fs, target)
		if err != nil {
			continue // a zero-mass job: finishRound's error, after the scan
		}
		var wantUp, wantFlow int
		var flowJobs []refJob
		for _, r := range ref {
			if r.roundUp {
				wantUp++
			} else {
				wantFlow++
				flowJobs = append(flowJobs, r)
			}
		}
		if got.RoundedUp != wantUp || got.FlowJobs != wantFlow {
			t.Fatalf("trial %d: rounded up %d, flow jobs %d; reference %d, %d", trial, got.RoundedUp, got.FlowJobs, wantUp, wantFlow)
		}
		if wantFlow == 0 {
			continue
		}
		flows++
		S := 32.0
		for _, r := range flowJobs {
			S = math.Max(S, 2/r.sum)
		}
		if got.Scale != int(math.Ceil(S)) {
			t.Fatalf("trial %d: scale %d, reference %v", trial, got.Scale, math.Ceil(S))
		}
		for k, r := range flowJobs {
			var machines []int
			for e, j := range got.Flow.EdgeJob {
				if j == r.j {
					machines = append(machines, got.Flow.EdgeMachine[e])
				}
			}
			demand := max(int64(math.Floor(float64(got.Scale)*r.sum)), 1)
			if got.Flow.JobNodes[k] != r.j || !slices.Equal(machines, r.machines) || got.Flow.Demands[k] != demand {
				t.Fatalf("trial %d: flow job %d routes job %d on %v with demand %d; reference job %d on %v with demand %d",
					trial, k, got.Flow.JobNodes[k], machines, got.Flow.Demands[k], r.j, r.machines, demand)
			}
		}
		// Count the jobs whose best lower bound two buckets share, where
		// the scan order picks the winner.
		for _, r := range flowJobs {
			pmin := 1 / (8 * float64(in.M))
			sums := map[int]float64{}
			for i := 0; i < in.M; i++ {
				if b := subUnitBucket(fs.X[i][r.j], in.P[i][r.j], pmin); b >= 0 {
					sums[b] += fs.X[i][r.j]
				}
			}
			best, at := 0.0, 0
			for b, s := range sums {
				if s < 1.0/32 {
					continue
				}
				switch lb := s * math.Exp2(-float64(b+1)); {
				case lb > best:
					best, at = lb, 1
				case lb == best:
					at++
				}
			}
			if at > 1 {
				ties++
			}
		}
	}
	if flows < 500 || ties < 100 {
		t.Fatalf("the draw exercised %d roundings with flows and %d ties for the best lower bound; want at least 500 and 100", flows, ties)
	}
	t.Logf("%d roundings with flows, %d jobs whose best lower bound ties", flows, ties)
}

// packPerStep packs one step at a time — an idle assignment per step,
// filled machine by machine — as the reference for PackSequential's
// boundary sweep.
func packPerStep(in *model.Instance, x [][]int) *sched.Oblivious {
	length := 0
	for i := range x {
		l := 0
		for _, c := range x[i] {
			l += c
		}
		length = max(length, l)
	}
	steps := make([]sched.Assignment, length)
	for s := range steps {
		steps[s] = sched.NewIdle(in.M)
	}
	for i := range x {
		pos := 0
		for j, c := range x[i] {
			for k := 0; k < c; k++ {
				steps[pos][i] = j
				pos++
			}
		}
	}
	return sched.NewOblivious(in.M, steps, nil)
}

// TestPackSequentialMatchesPerStep checks the boundary sweep against
// the per-step reference on random counts with zero rows (idle
// machines), zero columns (jobs no machine runs), machines that finish
// early and all-zero matrices: the same runs, ends and steps.
func TestPackSequentialMatchesPerStep(t *testing.T) {
	rng := rand.New(rand.NewSource(2212))
	for trial := 0; trial < 2000; trial++ {
		m, n := 1+rng.Intn(8), 1+rng.Intn(10)
		in := model.New(n, m)
		x := make([][]int, m)
		zeroRow, zeroCol := rng.Intn(m+1), rng.Intn(n+1) // m, n: none
		density := rng.Float64()
		for i := range x {
			x[i] = make([]int, n)
			for j := range x[i] {
				if i != zeroRow && j != zeroCol && rng.Float64() < density {
					x[i][j] = rng.Intn(5)
				}
			}
		}
		got, want := PackSequential(in, x), packPerStep(in, x)
		gotRuns, gotEnds := got.Runs()
		wantRuns, wantEnds := want.Runs()
		if got.Len() != want.Len() || !slices.Equal(gotEnds, wantEnds) ||
			!slices.EqualFunc(gotRuns, wantRuns, func(a, b sched.Assignment) bool { return slices.Equal(a, b) }) {
			t.Fatalf("trial %d, x=%v: runs %v ending %v; reference %v ending %v", trial, x, gotRuns, gotEnds, wantRuns, wantEnds)
		}
		for s := 0; s < got.Len(); s++ {
			if !slices.Equal(got.At(s), want.At(s)) {
				t.Fatalf("trial %d, x=%v: step %d is %v, reference %v", trial, x, s, got.At(s), want.At(s))
			}
		}
	}
}

// TestScheduleFromCountsIsPaddedPack pins ScheduleFromCounts step for
// step to PackSequential followed by idle steps up to t, at the max
// load and above it, and checks that it panics once a machine's counts
// exceed t.
func TestScheduleFromCountsIsPaddedPack(t *testing.T) {
	rng := rand.New(rand.NewSource(3606))
	for trial := 0; trial < 1000; trial++ {
		m, n := 1+rng.Intn(6), 1+rng.Intn(8)
		in := model.New(n, m)
		x := make([][]int, m)
		for i := range x {
			x[i] = make([]int, n)
			for j := range x[i] {
				if rng.Intn(3) > 0 {
					x[i][j] = rng.Intn(5)
				}
			}
		}
		packed := PackSequential(in, x)
		for _, tt := range []int{packed.Len(), packed.Len() + 1 + rng.Intn(5)} {
			got := ScheduleFromCounts(in, x, tt)
			if got.Len() != tt {
				t.Fatalf("trial %d, x=%v, t=%d: length %d", trial, x, tt, got.Len())
			}
			for s := 0; s < tt; s++ {
				want := sched.NewIdle(m)
				if s < packed.Len() {
					want = packed.At(s)
				}
				if !slices.Equal(got.At(s), want) {
					t.Fatalf("trial %d, x=%v, t=%d: step %d is %v, padded pack %v", trial, x, tt, s, got.At(s), want)
				}
			}
		}
		if packed.Len() == 0 {
			continue
		}
		func() {
			defer func() {
				if r := recover(); r != "core: counts exceed schedule length" {
					t.Fatalf("trial %d, x=%v: t one below the max load %d recovered %v", trial, x, packed.Len(), r)
				}
			}()
			ScheduleFromCounts(in, x, packed.Len()-1)
		}()
	}
}
