package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"suu/internal/core"
	"suu/internal/lp"
	"suu/internal/model"
	"suu/internal/sched"
	"suu/internal/sim"
	"suu/internal/solve"
)

// Config sizes the daemon's caches and bounds per-request work.
type Config struct {
	// ResultCacheBytes bounds the result cache: solve responses (with
	// their built schedules) and estimate responses.
	ResultCacheBytes int64
	// EngineCacheBytes bounds the compiled-engine cache: sim.Prepared
	// contexts (oblivious occurrence lists; an adaptive policy's
	// context holds no table and is charged a nominal size, because
	// its memo is rebuilt on every estimate).
	EngineCacheBytes int64
	// BasisCacheBytes bounds the LP warm-start basis cache. Bases are
	// tiny (two int slices), so this cache outlives result entries by
	// construction and a re-solve after result eviction warm-starts.
	BasisCacheBytes int64
	// InstanceCacheBytes bounds the submitted-instance store behind
	// instance_id references.
	InstanceCacheBytes int64
	// MaxReps caps any single estimate request's repetitions (direct or
	// via the convergence loop). 0 means the default (1<<17).
	MaxReps int
	// Workers is the estimation concurrency per request (0 =
	// GOMAXPROCS). Estimates are bit-identical at any setting.
	Workers int
}

// DefaultConfig returns the daemon defaults.
func DefaultConfig() Config {
	return Config{
		ResultCacheBytes:   64 << 20,
		EngineCacheBytes:   128 << 20,
		BasisCacheBytes:    4 << 20,
		InstanceCacheBytes: 32 << 20,
		MaxReps:            1 << 17,
	}
}

// Server is the suu-serve HTTP handler: the solver registry and the
// simulation engines behind a JSON API, with content-fingerprint
// caches in front of every expensive step. See the package comment for
// the endpoint catalogue and the caching contract.
type Server struct {
	cfg       Config
	mux       *http.ServeMux
	results   *Cache // solve + estimate responses, keyed by content
	engines   *Cache // sim.Prepared per schedule
	bases     *Cache // lp.Basis per solve
	instances *Cache // submitted instances by fingerprint
	metrics   *metrics
	start     time.Time
}

// solveEntry is the result cache's value for a solve key: the registry
// result (with the built policy — the schedule store) plus the stable
// response body.
type solveEntry struct {
	instKey string
	in      *model.Instance
	res     *solve.Result
	result  SolveResult
}

// estimateEntry is the result cache's value for an estimate key.
type estimateEntry struct {
	result EstimateResult
}

// New returns a Server with the given configuration.
func New(cfg Config) *Server {
	def := DefaultConfig()
	if cfg.ResultCacheBytes <= 0 {
		cfg.ResultCacheBytes = def.ResultCacheBytes
	}
	if cfg.EngineCacheBytes <= 0 {
		cfg.EngineCacheBytes = def.EngineCacheBytes
	}
	if cfg.BasisCacheBytes <= 0 {
		cfg.BasisCacheBytes = def.BasisCacheBytes
	}
	if cfg.InstanceCacheBytes <= 0 {
		cfg.InstanceCacheBytes = def.InstanceCacheBytes
	}
	if cfg.MaxReps <= 0 {
		cfg.MaxReps = def.MaxReps
	}
	s := &Server{
		cfg:       cfg,
		mux:       http.NewServeMux(),
		results:   NewCache(cfg.ResultCacheBytes),
		engines:   NewCache(cfg.EngineCacheBytes),
		bases:     NewCache(cfg.BasisCacheBytes),
		instances: NewCache(cfg.InstanceCacheBytes),
		metrics:   newMetrics(),
		start:     time.Now(),
	}
	s.mux.Handle("POST /v1/instances", s.instrument("instances", s.handleInstances))
	s.mux.Handle("POST /v1/solve", s.instrument("solve", s.handleSolve))
	s.mux.Handle("POST /v1/estimate", s.instrument("estimate", s.handleEstimate))
	s.mux.Handle("GET /v1/schedules/{id}", s.instrument("schedules", s.handleSchedule))
	s.mux.Handle("GET /v1/solvers", s.instrument("solvers", s.handleSolvers))
	s.mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.Handle("GET /statusz", s.instrument("statusz", s.handleStatusz))
	s.mux.Handle("GET /metricsz", s.instrument("metricsz", s.handleMetricsz))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// statusWriter records the status code for the metrics wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (s *Server) instrument(name string, h http.HandlerFunc) http.Handler {
	ep := s.metrics.endpoint(name)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		ep.observe(float64(time.Since(start).Nanoseconds())/1e6, sw.status >= 400)
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// Meta is the volatile half of a reply: how THIS request was served.
// It lives outside the result object so that cached and cold replies
// carry byte-identical results — the bit-identity tests compare the
// result objects and only the result objects.
type Meta struct {
	// Cached reports a result-cache hit.
	Cached bool `json:"cached"`
	// Coalesced reports that this request waited on another request's
	// identical in-flight build and shared its value.
	Coalesced bool `json:"coalesced,omitempty"`
	// BuildMS is the cold build's wall-clock (absent on hits).
	BuildMS float64 `json:"build_ms,omitempty"`
	// WarmBasis reports that a cold solve warm-started its LP from the
	// basis cache.
	WarmBasis bool `json:"warm_basis,omitempty"`
	// EngineCached reports that an estimate reused a cached compiled
	// engine instead of compiling one.
	EngineCached bool `json:"engine_cached,omitempty"`
}

// ---- POST /v1/instances ----

type instanceReply struct {
	ID       string `json:"id"`
	Jobs     int    `json:"jobs"`
	Machines int    `json:"machines"`
	Class    string `json:"class"`
	Width    int    `json:"width"`
	Depth    int    `json:"depth"`
}

func (s *Server) handleInstances(w http.ResponseWriter, r *http.Request) {
	in := &model.Instance{}
	if err := json.NewDecoder(r.Body).Decode(in); err != nil {
		httpError(w, http.StatusBadRequest, "decode instance: %v", err)
		return
	}
	key := InstanceKey(in)
	s.instances.Put(key, in, instanceSizeBytes(in))
	writeJSON(w, http.StatusOK, instanceReply{
		ID: key, Jobs: in.N, Machines: in.M,
		Class: in.Prec.Classify().String(), Width: in.Prec.Width(), Depth: in.Prec.Depth(),
	})
}

// resolveInstance returns the request's instance: inline body wins
// (and is deposited in the instance store), instance_id is looked up.
func (s *Server) resolveInstance(raw json.RawMessage, id string) (*model.Instance, string, error) {
	if len(raw) > 0 {
		in := &model.Instance{}
		if err := json.Unmarshal(raw, in); err != nil {
			return nil, "", fmt.Errorf("decode instance: %w", err)
		}
		key := InstanceKey(in)
		s.instances.Put(key, in, instanceSizeBytes(in))
		return in, key, nil
	}
	if id == "" {
		return nil, "", fmt.Errorf("request needs an inline instance or an instance_id")
	}
	v, ok := s.instances.Get(id)
	if !ok {
		return nil, "", fmt.Errorf("unknown instance_id %q (evicted or never submitted; re-submit via POST /v1/instances)", id)
	}
	return v.(*model.Instance), id, nil
}

// resolveSolver maps a request's solver field to a concrete registry
// solver, resolving "auto" (or empty) to the strongest construction
// for the instance's precedence class — so auto requests and explicit
// requests for the same construction share cache entries.
func resolveSolver(name string, in *model.Instance) (solve.Solver, error) {
	if name == "" || name == "auto" {
		return solve.Strongest(in.Prec.Classify())
	}
	sol, ok := solve.Get(name)
	if !ok {
		return solve.Solver{}, fmt.Errorf("unknown solver %q (GET /v1/solvers for the catalogue)", name)
	}
	return sol, nil
}

// ---- POST /v1/solve ----

type solveRequest struct {
	Instance   json.RawMessage `json:"instance,omitempty"`
	InstanceID string          `json:"instance_id,omitempty"`
	Solver     string          `json:"solver,omitempty"`
	Seed       int64           `json:"seed,omitempty"`
}

// SolveResult is the stable body of a solve reply: identical bytes
// whether built cold or served from the cache.
type SolveResult struct {
	// ScheduleID keys GET /v1/schedules/{id} and estimate requests.
	ScheduleID string  `json:"schedule_id"`
	InstanceID string  `json:"instance_id"`
	Solver     string  `json:"solver"`
	Kind       string  `json:"kind"`
	Guarantee  string  `json:"guarantee"`
	Class      string  `json:"class"`
	Adaptive   bool    `json:"adaptive"`
	PrefixLen  int     `json:"prefix_len,omitempty"`
	CoreLength int     `json:"core_length,omitempty"`
	LPValue    float64 `json:"lp_value,omitempty"`
	LowerBound float64 `json:"lower_bound,omitempty"`
	ExactValue float64 `json:"exact_value,omitempty"`
	Detail     string  `json:"detail"`
}

type solveReply struct {
	Result SolveResult `json:"result"`
	Meta   Meta        `json:"meta"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req solveRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	entry, meta, err := s.solveEntry(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, solveReply{Result: entry.result, Meta: meta})
}

// solveEntry runs the cached solve path shared by /v1/solve and
// /v1/estimate: resolve instance and solver, then build through the
// result cache (one build per content key, however many concurrent
// requests ask).
func (s *Server) solveEntry(req solveRequest) (*solveEntry, Meta, error) {
	in, instKey, err := s.resolveInstance(req.Instance, req.InstanceID)
	if err != nil {
		return nil, Meta{}, err
	}
	sol, err := resolveSolver(req.Solver, in)
	if err != nil {
		return nil, Meta{}, err
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	key := solveKey(instKey, sol.ID, seed)
	bKey := basisKey(instKey, sol.ID, seed)
	var meta Meta
	v, hit, coal, err := s.results.Do(key, func() (any, int64, error) {
		par := core.DefaultParams()
		par.Seed = seed
		if b, ok := s.bases.Get(bKey); ok {
			par.WarmBasis = b.(*lp.Basis)
			meta.WarmBasis = true
		}
		start := time.Now()
		res, err := sol.Build(in, par)
		if err != nil {
			return nil, 0, err
		}
		meta.BuildMS = float64(time.Since(start).Nanoseconds()) / 1e6
		if res.LPBasis != nil {
			s.bases.Put(bKey, res.LPBasis, basisSizeBytes(res.LPBasis))
		}
		e := &solveEntry{
			instKey: instKey,
			in:      in,
			res:     res,
			result: SolveResult{
				ScheduleID: key,
				InstanceID: instKey,
				Solver:     sol.ID,
				Kind:       res.Kind,
				Guarantee:  res.Guarantee,
				Class:      in.Prec.Classify().String(),
				Adaptive:   res.Adaptive,
				PrefixLen:  res.PrefixLen,
				CoreLength: res.CoreLength,
				LPValue:    res.LPValue,
				LowerBound: res.LowerBound,
				ExactValue: res.ExactValue,
				Detail:     res.Detail,
			},
		}
		return e, solveEntrySizeBytes(in, res), nil
	})
	if err != nil {
		return nil, Meta{}, err
	}
	meta.Cached, meta.Coalesced = hit, coal
	if hit || coal {
		// The build-side fields describe someone else's build.
		meta.BuildMS, meta.WarmBasis = 0, false
	}
	return v.(*solveEntry), meta, nil
}

func basisSizeBytes(b *lp.Basis) int64 {
	return int64(len(b.Basic)+len(b.AtUpper))*8 + 64
}

// solveEntrySizeBytes estimates a solve entry's resident size: the
// instance, the schedule prefix (the dominant term for oblivious
// schedules), and a fixed charge for the result metadata.
func solveEntrySizeBytes(in *model.Instance, res *solve.Result) int64 {
	n := instanceSizeBytes(in) + 512
	if obl, ok := res.Policy.(*sched.Oblivious); ok {
		n += int64(obl.Len())*int64(obl.M)*8 + 256
	}
	return n
}

// ---- POST /v1/estimate ----

type estimateRequest struct {
	Instance   json.RawMessage `json:"instance,omitempty"`
	InstanceID string          `json:"instance_id,omitempty"`
	// ScheduleID estimates an already-solved schedule; alternatively
	// the request carries instance+solver and the solve runs (or hits
	// its cache) inline.
	ScheduleID string `json:"schedule_id,omitempty"`
	Solver     string `json:"solver,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	// SimSeed drives the repetition streams (default 1). Identical
	// (schedule, sim parameters) requests are bit-identical — and
	// therefore cacheable.
	SimSeed  int64 `json:"sim_seed,omitempty"`
	Reps     int   `json:"reps,omitempty"`
	MaxSteps int   `json:"max_steps,omitempty"`
	// CIHalfWidth, when positive, turns the request into a convergence
	// loop: repetitions grow (deterministically) until the 95% CI
	// half-width is at most this target or MaxReps is reached.
	CIHalfWidth float64 `json:"ci_half_width,omitempty"`
	MaxReps     int     `json:"max_reps,omitempty"`
}

// EstimateResult is the stable body of an estimate reply.
type EstimateResult struct {
	ScheduleID  string  `json:"schedule_id"`
	Reps        int     `json:"reps"`
	Mean        float64 `json:"mean"`
	StdDev      float64 `json:"std_dev"`
	HalfWidth95 float64 `json:"half_width_95"`
	Min         float64 `json:"min"`
	Max         float64 `json:"max"`
	// Incomplete counts repetitions that hit the step cap.
	Incomplete int `json:"incomplete,omitempty"`
	// Engine and Lanes record the simulation engine that ran (see
	// sim.EngineUsed).
	Engine string `json:"engine"`
	Lanes  int    `json:"lanes,omitempty"`
	// TargetHalfWidth echoes the convergence target; Converged whether
	// the loop reached it within MaxReps; Rounds how many estimation
	// passes the loop ran.
	TargetHalfWidth float64 `json:"target_half_width,omitempty"`
	Converged       bool    `json:"converged,omitempty"`
	Rounds          int     `json:"rounds,omitempty"`
}

type estimateReply struct {
	Result EstimateResult `json:"result"`
	Meta   Meta           `json:"meta"`
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req estimateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}

	// Resolve the schedule: by id from the result cache, or by solving
	// (through the same cache) from instance+solver.
	var (
		entry *solveEntry
		meta  Meta
	)
	if req.ScheduleID != "" {
		v, ok := s.results.Get(req.ScheduleID)
		if !ok {
			httpError(w, http.StatusNotFound,
				"unknown schedule_id %q (evicted or never solved; re-solve via POST /v1/solve)", req.ScheduleID)
			return
		}
		se, ok := v.(*solveEntry)
		if !ok {
			httpError(w, http.StatusNotFound, "id %q does not name a schedule", req.ScheduleID)
			return
		}
		entry = se
	} else {
		var err error
		entry, _, err = s.solveEntry(solveRequest{
			Instance: req.Instance, InstanceID: req.InstanceID,
			Solver: req.Solver, Seed: req.Seed,
		})
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}

	// Defaults and caps.
	simSeed := req.SimSeed
	if simSeed == 0 {
		simSeed = 1
	}
	maxSteps := req.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 1_000_000
	}
	maxReps := req.MaxReps
	if maxReps <= 0 || maxReps > s.cfg.MaxReps {
		maxReps = s.cfg.MaxReps
	}
	reps := req.Reps
	if reps <= 0 {
		if req.CIHalfWidth > 0 {
			reps = 64 // convergence loop start
		} else {
			reps = 200
		}
	}
	if reps > maxReps {
		reps = maxReps
	}
	if req.CIHalfWidth < 0 {
		httpError(w, http.StatusBadRequest, "ci_half_width must be positive")
		return
	}

	scheduleID := entry.result.ScheduleID
	eKey := estimateKey(scheduleID, simSeed, reps, maxSteps, req.CIHalfWidth, maxReps)
	v, hit, coal, err := s.results.Do(eKey, func() (any, int64, error) {
		prep, engineHit, err := s.prepared(entry)
		if err != nil {
			return nil, 0, err
		}
		meta.EngineCached = engineHit
		res := runEstimate(prep, reps, maxSteps, simSeed, req.CIHalfWidth, maxReps, s.cfg.Workers)
		res.ScheduleID = scheduleID
		return &estimateEntry{result: res}, 512, nil
	})
	if err != nil {
		httpError(w, http.StatusInternalServerError, "estimate: %v", err)
		return
	}
	meta.Cached, meta.Coalesced = hit, coal
	if hit || coal {
		meta.EngineCached = false
	}
	writeJSON(w, http.StatusOK, estimateReply{Result: v.(*estimateEntry).result, Meta: meta})
}

// prepared fetches (or builds) the cached compiled engine for a solve
// entry.
func (s *Server) prepared(entry *solveEntry) (*sim.Prepared, bool, error) {
	v, hit, coal, err := s.engines.Do(entry.result.ScheduleID, func() (any, int64, error) {
		p := sim.Prepare(entry.in, entry.res.Policy)
		return p, p.SizeBytes(), nil
	})
	if err != nil {
		return nil, false, err
	}
	return v.(*sim.Prepared), hit || coal, nil
}

// runEstimate runs one estimate, or the CI convergence loop when
// ciHW > 0: repetitions grow by the squared half-width ratio (clamped
// to [2x, 16x]) until the target is met or maxReps is reached. The
// growth factor depends only on the measured half-width, which is
// deterministic given the seed, so the loop — and therefore the
// response — is a pure function of the request.
func runEstimate(prep *sim.Prepared, reps, maxSteps int, simSeed int64, ciHW float64, maxReps, workers int) EstimateResult {
	sum, inc, eng := prep.EstimateParallelInfo(reps, maxSteps, simSeed, workers)
	rounds := 1
	for ciHW > 0 && sum.HalfWidth95 > ciHW && reps < maxReps {
		ratio := sum.HalfWidth95 / ciHW
		factor := ratio * ratio * 1.2 // 20% headroom: σ/√n estimates are noisy
		if factor < 2 {
			factor = 2
		} else if factor > 16 {
			factor = 16
		}
		reps = int(float64(reps) * factor)
		if reps > maxReps {
			reps = maxReps
		}
		sum, inc, eng = prep.EstimateParallelInfo(reps, maxSteps, simSeed, workers)
		rounds++
	}
	res := EstimateResult{
		Reps:        reps,
		Mean:        sum.Mean,
		StdDev:      sum.StdDev,
		HalfWidth95: sum.HalfWidth95,
		Min:         sum.Min,
		Max:         sum.Max,
		Incomplete:  inc,
		Engine:      eng.Engine,
		Lanes:       eng.Lanes,
	}
	if ciHW > 0 {
		res.TargetHalfWidth = ciHW
		res.Converged = sum.HalfWidth95 <= ciHW
		res.Rounds = rounds
	}
	return res
}

// ---- GET /v1/schedules/{id} ----

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	v, ok := s.results.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound,
			"unknown schedule %q (evicted or never solved; re-solve via POST /v1/solve)", id)
		return
	}
	entry, ok := v.(*solveEntry)
	if !ok {
		httpError(w, http.StatusNotFound, "id %q does not name a schedule", id)
		return
	}
	obl, oblivious := entry.res.Policy.(*sched.Oblivious)
	format := r.URL.Query().Get("format")
	switch format {
	case "", "json":
		if !oblivious {
			httpError(w, http.StatusConflict,
				"schedule %q is adaptive: no serialized prefix (formats json/gantt/analyze need an oblivious schedule)", id)
			return
		}
		writeJSON(w, http.StatusOK, obl)
	case "gantt":
		if !oblivious {
			httpError(w, http.StatusConflict, "schedule %q is adaptive: no Gantt rendering", id)
			return
		}
		steps := obl.Len()
		if q := r.URL.Query().Get("steps"); q != "" {
			if _, err := fmt.Sscanf(q, "%d", &steps); err != nil || steps <= 0 {
				httpError(w, http.StatusBadRequest, "bad steps %q", q)
				return
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, obl.Gantt(steps))
	case "analyze":
		if !oblivious {
			httpError(w, http.StatusConflict, "schedule %q is adaptive: no prefix analysis", id)
			return
		}
		writeJSON(w, http.StatusOK, sched.AnalyzePrefix(entry.in, obl))
	default:
		httpError(w, http.StatusBadRequest, "unknown format %q (json, gantt, analyze)", format)
	}
}

// ---- GET /v1/solvers ----

type solverInfo struct {
	ID        string   `json:"id"`
	Aliases   []string `json:"aliases,omitempty"`
	Theorem   string   `json:"theorem,omitempty"`
	Guarantee string   `json:"guarantee"`
	Classes   string   `json:"classes"`
	Oblivious bool     `json:"oblivious"`
	Baseline  bool     `json:"baseline,omitempty"`
	Rank      int      `json:"rank,omitempty"`
}

func (s *Server) handleSolvers(w http.ResponseWriter, r *http.Request) {
	var out []solverInfo
	for _, sol := range solve.All() {
		out = append(out, solverInfo{
			ID: sol.ID, Aliases: sol.Aliases, Theorem: sol.Theorem,
			Guarantee: sol.Guarantee, Classes: sol.ClassNames(),
			Oblivious: sol.Oblivious, Baseline: sol.Baseline, Rank: sol.Rank,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// ---- health and introspection ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Status is the /statusz document.
type Status struct {
	UptimeSec  float64               `json:"uptime_sec"`
	GoVersion  string                `json:"go_version"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	MaxReps    int                   `json:"max_reps"`
	Workers    int                   `json:"workers"`
	Caches     map[string]CacheStats `json:"caches"`
}

// StatusSnapshot returns the /statusz document (exported for the load
// harness, which reads the cache counters without HTTP round-trips).
func (s *Server) StatusSnapshot() Status {
	return Status{
		UptimeSec:  time.Since(s.start).Seconds(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		MaxReps:    s.cfg.MaxReps,
		Workers:    s.cfg.Workers,
		Caches: map[string]CacheStats{
			"results":   s.results.Stats(),
			"engines":   s.engines.Stats(),
			"bases":     s.bases.Stats(),
			"instances": s.instances.Stats(),
		},
	}
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatusSnapshot())
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"endpoints": s.metrics.snapshot()})
}
