// Command suubench is the repository benchmark: three seeded,
// closed-loop workloads (static-oblivious, adaptive-dynamic,
// serve-mix) that drive the suu library and the suu-serve handler and
// check every output. See RATIONALE.md for why each workload exists and
// which layer metric should move which end-to-end metric.
//
//	suubench --workload static-oblivious --seed 1 --seconds 10 --trace 0
//	suubench --compare base.jsonl new.jsonl
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics of a separate traced run with
// --trace 1. A line before it records the environment and sample
// counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"suu/internal/stats"
)

// setupRepeats is how many times a run builds its workload; setup_s is
// the median, so one slow set-up does not move it.
const setupRepeats = 5

// gcPercent is the collector target the benchmark process runs at. At
// the default 100, serve-mix's cache-sized live heap makes collection
// overlap requests differently from run to run: in four interleaved
// pairs of identical runs on a two-core machine its cold-solve median
// ranged over 1.12–1.55 ms at 100 and 1.02–1.12 ms at 400. Allocation
// is still measured, as alloc_kb_per_op.
const gcPercent = 400

// traceRounds is how many reference/traced phase pairs a traced run
// alternates.
const traceRounds = 4

// opSample is what one op reports to the loop.
type opSample struct {
	// opMS is the op's wall-clock (probe time excluded).
	opMS float64
	// solveMS and estMS are the op's construction and estimation calls
	// (library workloads), or its cold /v1/solve and /v1/estimate
	// requests (serve-mix).
	solveMS, estMS []float64
	// reps is the Monte Carlo repetitions the op's timed estimates ran.
	reps int
	// err is a failed or refused call, or a failed output check.
	err error
	// end is when the op finished, from the start of its phase.
	end time.Duration
}

// runner is one set-up workload.
type runner interface {
	// clients is the number of closed-loop callers.
	clients() int
	// op runs op k of client c. layered selects the traced call path
	// (calls into each module's functions rather than the public entry
	// point); rec is nil outside the traced run, and probes run only
	// when it is set.
	op(c, k int, rec *recorder, layered bool) opSample
	// counters reports cumulative program-side counters (cache
	// statistics), or nil.
	counters() map[string]float64
	close()
}

// workloadDef names a workload and builds it from a seed.
type workloadDef struct {
	name  string
	setup func(seed int64, tiny bool) (runner, error)
}

var workloads = []workloadDef{
	{"static-oblivious", setupStatic},
	{"adaptive-dynamic", setupDynamic},
	{"serve-mix", setupServe},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// phase is one timed closed-loop run.
type phase struct {
	samples    []opSample
	elapsed    time.Duration
	allocBytes uint64
	recs       []*recorder
}

// measure runs every client of r in a closed loop for d. next[c] is
// client c's next op index; it advances so that a later phase
// continues the input stream instead of repeating it.
func measure(r runner, d time.Duration, layered, traced bool, next []int) phase {
	n := r.clients()
	per := make([][]opSample, n)
	recs := make([]*recorder, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		if traced {
			recs[c] = newRecorder(start)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ; time.Since(start) < d; next[c]++ {
				s := r.op(c, next[c], recs[c], layered)
				s.end = time.Since(start)
				per[c] = append(per[c], s)
			}
		}(c)
	}
	wg.Wait()
	p := phase{elapsed: time.Since(start)}
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	for _, s := range per {
		p.samples = append(p.samples, s...)
	}
	if traced {
		p.recs = recs
	}
	return p
}

// merge appends q to p.
func (p *phase) merge(q phase) {
	p.samples = append(p.samples, q.samples...)
	p.elapsed += q.elapsed
	p.allocBytes += q.allocBytes
	p.recs = append(p.recs, q.recs...)
}

// failures counts failed ops and returns the first error.
func (p phase) failures() (int, error) {
	n := 0
	var first error
	for _, s := range p.samples {
		if s.err != nil {
			if first == nil {
				first = s.err
			}
			n++
		}
	}
	return n, first
}

// opRate is clients × ops over the summed op wall-clock: the rate each
// client would sustain with no loop overhead, comparable between the
// traced and untraced call paths.
func opRate(p phase, clients int) float64 {
	var ms float64
	for _, s := range p.samples {
		ms += s.opMS
	}
	if ms == 0 {
		return 0
	}
	return float64(clients*len(p.samples)) / (ms / 1e3)
}

func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// rateWindow is the window over which the throughput metrics are
// taken; each is the median over a run's windows, so a transient
// slowdown of the shared machine moves it less than it moves a mean.
const rateWindow = time.Second

// windowRates splits the phase into rateWindow-long windows and
// returns, per window, the ops completed per second and the
// repetitions per second of estimate time. A window's span runs from
// the last op completion before it to its own last completion, so
// rates are exact rather than whole counts.
func windowRates(p phase) (ops, reps []float64) {
	// Ops that end after the last whole window belong to a window the
	// deadline cut short; drop them unless there is no whole window.
	last := p.elapsed / rateWindow * rateWindow
	var s []opSample
	for _, x := range p.samples {
		if x.end < last || last == 0 {
			s = append(s, x)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].end < s[j].end })
	var prevEnd time.Duration
	for i := 0; i < len(s); {
		w := s[i].end / rateWindow
		var n, repCount, estMS float64
		j := i
		for ; j < len(s) && s[j].end/rateWindow == w; j++ {
			n++
			repCount += float64(s[j].reps)
			for _, v := range s[j].estMS {
				estMS += v
			}
		}
		if span := s[j-1].end - prevEnd; span > 0 {
			ops = append(ops, n/span.Seconds())
		}
		if estMS > 0 {
			reps = append(reps, repCount/(estMS/1e3))
		}
		prevEnd, i = s[j-1].end, j
	}
	return ops, reps
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func endToEnd(p phase, setupS float64) map[string]float64 {
	var opMS, solveMS, estMS []float64
	for _, s := range p.samples {
		opMS = append(opMS, s.opMS)
		solveMS = append(solveMS, s.solveMS...)
		estMS = append(estMS, s.estMS...)
	}
	opsRate, repsRate := windowRates(p)
	m := map[string]float64{
		"setup_s":         setupS,
		"ops_per_s":       median(opsRate),
		"reps_per_s":      median(repsRate),
		"op_ms_p50":       quantile(opMS, 0.5),
		"op_ms_p90":       quantile(opMS, 0.9),
		"solve_ms_p50":    quantile(solveMS, 0.5),
		"solve_ms_p90":    quantile(solveMS, 0.9),
		"estimate_ms_p50": quantile(estMS, 0.5),
		"estimate_ms_p90": quantile(estMS, 0.9),
		"alloc_kb_per_op": float64(p.allocBytes) / 1024 / float64(len(p.samples)),
	}
	return m
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct{ name, unit string }

// endToEndDefs are the end-to-end metrics, in BENCHMARK.json order.
// The tails are p90, not p99: over ten seeded runs on a shared two-core
// virtual machine, the interquartile spread of the p99s reached 0.22 to
// 0.47 of their median while the medians' stayed within 0.10; the p90s
// track the medians.
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"solve_ms_p50", "ms"},
	{"solve_ms_p90", "ms"},
	{"estimate_ms_p50", "ms"},
	{"estimate_ms_p90", "ms"},
	{"reps_per_s", "1/s"},
	{"alloc_kb_per_op", "KiB"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the line printed before the result: what ran, where, and
// how many samples each percentile rests on.
type record struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Seconds   float64        `json:"seconds"`
	Trace     int            `json:"trace"`
	Env       map[string]any `json:"env"`
	Samples   map[string]int `json:"samples"`
	ErrorRate float64        `json:"error_rate"`
	FirstErr  string         `json:"first_error,omitempty"`
	SpansFile string         `json:"spans_file,omitempty"`
}

func environment() map[string]any {
	commit := os.Getenv("SUUBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos_arch":  runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
		"gc_percent": gcPercent,
	}
}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	spansDir string
}

// setupTimed builds the workload setupRepeats times, keeps the last
// build and returns the median set-up time in seconds.
func setupTimed(w workloadDef, o options) (runner, float64, error) {
	var times []float64
	var r runner
	for i := 0; i < setupRepeats; i++ {
		if r != nil {
			r.close()
		}
		start := time.Now()
		var err error
		r, err = w.setup(o.seed, o.tiny)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return r, median(times), nil
}

// run executes one benchmark invocation and returns the record and the
// result object.
func run(o options) (record, result, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return record{}, result{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	r, setupS, err := setupTimed(w, o)
	if err != nil {
		return record{}, result{}, err
	}
	defer r.close()

	rec := record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Env: environment(), Samples: map[string]int{}}
	res := result{Metrics: map[string]metricValue{}}
	d := time.Duration(o.seconds * float64(time.Second))
	next := make([]int, r.clients())
	var phases []phase
	if !o.trace {
		p := measure(r, d, false, false, next)
		phases = append(phases, p)
		vals := endToEnd(p, setupS)
		for _, def := range endToEndDefs {
			res.Metrics[def.name] = metricValue{vals[def.name], def.unit}
		}
		for _, s := range p.samples {
			rec.Samples["op"]++
			rec.Samples["solve"] += len(s.solveMS)
			rec.Samples["estimate"] += len(s.estMS)
		}
	} else {
		rec.Trace = 1
		// The reference phases run the traced call path with the
		// recorder off, so the two rates differ only by tracing. They
		// alternate with the traced phases so that drift in the
		// program's state (cache contents, heap size) hits both alike.
		var ref, traced phase
		prog := map[string]float64{}
		for i := 0; i < traceRounds; i++ {
			ref.merge(measure(r, d/3/traceRounds, true, false, next))
			before := r.counters()
			traced.merge(measure(r, (d-d/3)/traceRounds, true, true, next))
			for k, v := range counterDelta(before, r.counters()) {
				prog[k] += v
			}
		}
		phases = append(phases, ref, traced)
		sum := summarize(traced.recs)
		vals := layerMetrics(sum, prog, opRate(ref, r.clients()), opRate(traced, r.clients()))
		for _, def := range perLayerDefs {
			res.Metrics[def.name] = metricValue{vals[def.name], def.unit}
		}
		rec.Samples["op"] = sum.ops
		if o.spansDir != "" {
			path, err := writeSpans(o.spansDir, o.workload, o.seed, traced.recs)
			if err != nil {
				return record{}, result{}, fmt.Errorf("write spans: %w", err)
			}
			rec.SpansFile = path
		}
	}
	for _, p := range phases {
		n, first := p.failures()
		res.Attempted += len(p.samples)
		res.Failed += n
		if first != nil && rec.FirstErr == "" {
			rec.FirstErr = first.Error()
		}
	}
	if res.Attempted > 0 {
		rec.ErrorRate = float64(res.Failed) / float64(res.Attempted)
	}
	res.Correct = res.Failed == 0
	return rec, res, nil
}

func main() {
	var o options
	var traceFlag int
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "workload: static-oblivious, adaptive-dynamic or serve-mix")
	flag.Int64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&o.spansDir, "spans-dir", ".bench_build/spans", "where the traced run writes its spans")
	flag.BoolVar(&compare, "compare", false, "compare two result files: --compare BASE NEW")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: suubench --compare BASE NEW")
			os.Exit(2)
		}
		if err := runCompare(os.Stdout, flag.Arg(0), flag.Arg(1), "BENCHMARK.json"); err != nil {
			fmt.Fprintln(os.Stderr, "suubench:", err)
			os.Exit(1)
		}
		return
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "suubench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "suubench: --seconds must be positive")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	debug.SetGCPercent(gcPercent)
	rec, res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "suubench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rec); err != nil {
		fmt.Fprintln(os.Stderr, "suubench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "suubench:", err)
		os.Exit(1)
	}
}
