package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"suu/internal/core"
	"suu/internal/model"
	"suu/internal/opt"
	"suu/internal/serve"
	"suu/internal/solve"
	"suu/internal/workload"
)

const (
	serveClients = 2
	// hotInstances is the Zipf-weighted read set.
	hotInstances = 8
	// resultCacheBytes holds the hot set (about 1 MiB of schedules)
	// several times over, so hot reads hit, yet set-up overflows it and
	// the timed phase runs at steady-state eviction.
	resultCacheBytes = 8 << 20
	// engineCacheBytes and instanceCacheBytes hold the hot set's
	// compiled engines (about 3 MiB) and instances several times over.
	// Set-up overflows them too: with the daemon's defaults (128 and
	// 32 MiB) they would still be filling during the timed phase, and
	// the growing heap would slow every later request.
	engineCacheBytes   = 16 << 20
	instanceCacheBytes = 2 << 20
	// revisitLag is how many fresh instances a client creates before it
	// revisits one; by then the result cache has evicted it and only
	// the basis cache remembers it.
	revisitLag   = 24
	estimateReps = 200
)

// serveMix is the request mix as cumulative shares: ~60% hot reads,
// ~26% writes and cold work, ~4% revisits and ~5% each of
// convergence-loop estimates and exact solves. A third of the cold ops
// are independent instances, which outnumber the revisits that drain
// them.
var serveMix = []struct {
	class string
	upTo  float64
}{
	{"hot_solve", 0.20},
	{"hot_estimate", 0.40},
	{"hot_schedule", 0.60},
	{"instance_post", 0.68},
	{"cold", 0.86},
	{"revisit", 0.90},
	{"ci", 0.95},
	{"optimal", 1.00},
}

// hotEntry is one pre-warmed instance of the read set.
type hotEntry struct {
	in         *model.Instance
	id         string
	solveBody  []byte
	estBody    []byte
	scheduleID string
}

type serveClient struct {
	http  *http.Client
	rng   *rand.Rand
	fresh int // fresh instances created so far
	// indep holds the fresh independent instances sent so far and not
	// yet revisited, oldest first.
	indep []sentInstance
}

// sentInstance is an instance and the inline JSON it was sent as.
type sentInstance struct {
	in   *model.Instance
	json []byte
}

type serveRunner struct {
	srv     *serve.Server
	httpSrv *http.Server
	served  chan error
	base    string
	hot     []hotEntry
	zipf    []float64 // cumulative Zipf weights over hot
	cl      []*serveClient
	seed    int64
	tiny    bool

	mu sync.Mutex
	// built maps a request that is sent more than once to the result of
	// the build that last filled its cache entry; every later hit must
	// return those bytes. Requests sent once are not kept, so the map
	// stays the size of the hot set plus the pending revisits.
	built map[string][]byte
}

func setupServe(seed int64, tiny bool) (runner, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	r := &serveRunner{
		srv: serve.New(serve.Config{
			Workers:            1,
			ResultCacheBytes:   resultCacheBytes,
			EngineCacheBytes:   engineCacheBytes,
			InstanceCacheBytes: instanceCacheBytes,
		}),
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		seed:   seed,
		tiny:   tiny,
		built:  map[string][]byte{},
	}
	r.httpSrv = &http.Server{Handler: r.srv}
	go func() { r.served <- r.httpSrv.Serve(ln) }()
	for c := 0; c < serveClients; c++ {
		r.cl = append(r.cl, &serveClient{
			http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
			rng:  rand.New(rand.NewSource(seed*7919 + int64(c))),
		})
	}
	if err := r.warm(); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

// warm submits, solves and estimates the hot set, overflows the
// result, engine and instance caches with cold work, then touches the
// hot set again so it is the most recently used.
func (r *serveRunner) warm() error {
	var total float64
	for i := 0; i < hotInstances; i++ {
		in := r.instance("hot", i)
		id := serve.InstanceKey(in)
		body, err := json.Marshal(in)
		if err != nil {
			return err
		}
		if _, err := r.request(r.cl[0], "POST", "/v1/instances", body, false); err != nil {
			return err
		}
		h := hotEntry{in: in, id: id}
		h.solveBody, _ = json.Marshal(map[string]any{"instance_id": id, "solver": "auto"})
		h.estBody, _ = json.Marshal(map[string]any{"instance_id": id, "solver": "auto", "reps": estimateReps, "sim_seed": 7})
		rep, err := r.request(r.cl[0], "POST", "/v1/solve", h.solveBody, true)
		if err != nil {
			return err
		}
		var res serve.SolveResult
		if err := json.Unmarshal(rep.result, &res); err != nil {
			return fmt.Errorf("hot solve reply: %w", err)
		}
		h.scheduleID = res.ScheduleID
		if _, err := r.request(r.cl[0], "POST", "/v1/estimate", h.estBody, true); err != nil {
			return err
		}
		r.hot = append(r.hot, h)
		total += 1 / float64(i+1)
		r.zipf = append(r.zipf, total)
	}
	for i := range r.zipf {
		r.zipf[i] /= total
	}
	for i := 0; ; i++ {
		caches := r.srv.StatusSnapshot().Caches
		if caches["results"].Evictions > 0 && caches["engines"].Evictions > 0 && caches["instances"].Evictions > 0 {
			break
		}
		if i == 100_000 {
			return errors.New("caches never overflowed")
		}
		in := r.instance("filler", i)
		var path string
		var body []byte
		switch {
		case caches["engines"].Evictions == 0:
			path = "/v1/estimate"
			body, _ = json.Marshal(map[string]any{"instance": in, "solver": "auto", "reps": estimateReps})
		case caches["results"].Evictions == 0:
			path = "/v1/solve"
			body, _ = json.Marshal(map[string]any{"instance": in, "solver": "auto"})
		default:
			path = "/v1/instances"
			body, _ = json.Marshal(in)
		}
		if _, err := r.request(r.cl[0], "POST", path, body, false); err != nil {
			return err
		}
	}
	for _, h := range r.hot {
		body, err := json.Marshal(h.in)
		if err != nil {
			return err
		}
		for _, s := range []struct {
			path string
			body []byte
		}{{"/v1/instances", body}, {"/v1/solve", h.solveBody}, {"/v1/estimate", h.estBody}} {
			if _, err := r.request(r.cl[0], "POST", s.path, s.body, s.path != "/v1/instances"); err != nil {
				return err
			}
		}
	}
	return nil
}

// instance generates the inputs: hot and filler instances, fresh cold
// chains and independent instances, and small exact-solve instances.
func (r *serveRunner) instance(kind string, i int) *model.Instance {
	div := 1
	if r.tiny {
		div = 4
	}
	base := r.seed*1_000_003 + int64(i)
	switch kind {
	case "hot":
		if i%2 == 1 {
			return workload.Chains(workload.Config{Jobs: 32 / div, Machines: 8, Seed: base + 100}, 4)
		}
		return workload.Independent(workload.Config{Jobs: 24 / div, Machines: 6, Seed: base + 100})
	case "filler":
		return workload.Chains(workload.Config{Jobs: 32 / div, Machines: 8, Seed: base + 200_000}, 4)
	case "chains":
		return workload.Chains(workload.Config{Jobs: 32 / div, Machines: 8, Seed: base + 400_000}, 4)
	case "independent":
		return workload.Independent(workload.Config{Jobs: 24 / div, Machines: 6, Seed: base + 600_000})
	case "optimal":
		jobs := 10
		if r.tiny {
			jobs = 6
		}
		return workload.Independent(workload.Config{Jobs: jobs, Machines: 3, Seed: base + 800_000})
	}
	panic("unknown instance kind " + kind)
}

func (r *serveRunner) clients() int { return serveClients }

func (r *serveRunner) counters() map[string]float64 {
	out := map[string]float64{}
	for name, st := range r.srv.StatusSnapshot().Caches {
		out[name+".hits"] = float64(st.Hits)
		out[name+".misses"] = float64(st.Misses)
		out[name+".evictions"] = float64(st.Evictions)
		out[name+".coalesced"] = float64(st.Coalesced)
	}
	return out
}

func (r *serveRunner) close() {
	for _, c := range r.cl {
		c.http.CloseIdleConnections()
	}
	r.httpSrv.Close()
	<-r.served
}

// reply is one response as the client saw it.
type reply struct {
	ms     float64
	code   int
	body   []byte
	result json.RawMessage
	meta   serve.Meta
}

// request sends one request over the loopback socket and checks the
// reply (set-up's path). repeat is as in step.
func (r *serveRunner) request(c *serveClient, method, path string, body []byte, repeat bool) (reply, error) {
	st := step{method, path, body, "", repeat}
	rep, err := r.send(c, st, nil, nil)
	if err != nil {
		return rep, err
	}
	return rep, r.check(st, &rep)
}

// send runs one request and returns the raw reply. With a prepared
// httptest request (the layered path) it calls the handler directly
// inside a serve.handler.<class> span; otherwise it goes over the
// loopback socket.
func (r *serveRunner) send(c *serveClient, s step, direct *http.Request, rec *recorder) (reply, error) {
	var rep reply
	if direct != nil {
		w := httptest.NewRecorder()
		rec.begin("serve.handler." + s.class)
		start := time.Now()
		r.srv.ServeHTTP(w, direct)
		rep.ms = ms(time.Since(start))
		rec.end()
		rep.code, rep.body = w.Code, w.Body.Bytes()
		return rep, nil
	}
	req, err := http.NewRequest(s.method, r.base+s.path, bytes.NewReader(s.body))
	if err != nil {
		return rep, err
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return rep, fmt.Errorf("%s %s: %w", s.method, s.path, err)
	}
	rep.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	rep.ms = ms(time.Since(start))
	if err != nil {
		return rep, fmt.Errorf("%s %s: read: %w", s.method, s.path, err)
	}
	rep.code = resp.StatusCode
	return rep, nil
}

// check fails a reply whose status is not 200, decodes the result and
// meta of solve and estimate replies, and checks that a cache hit
// returns the bytes the build that filled its entry returned.
func (r *serveRunner) check(s step, rep *reply) error {
	if rep.code != http.StatusOK {
		return fmt.Errorf("%s %s: status %d: %s", s.method, s.path, rep.code, bytes.TrimSpace(rep.body))
	}
	if s.method != "POST" || s.path == "/v1/instances" {
		return nil
	}
	var env struct {
		Result json.RawMessage `json:"result"`
		Meta   serve.Meta      `json:"meta"`
	}
	if err := json.Unmarshal(rep.body, &env); err != nil {
		return fmt.Errorf("%s: decode reply: %w", s.path, err)
	}
	rep.result, rep.meta = env.Result, env.Meta
	if !s.repeat {
		return nil
	}
	key := s.path + "\x00" + string(s.body)
	r.mu.Lock()
	defer r.mu.Unlock()
	prev, seen := r.built[key]
	switch {
	case env.Meta.Cached && seen && !bytes.Equal(prev, env.Result):
		return fmt.Errorf("%s: cache hit differs from its build:\n%s\nvs\n%s", s.path, env.Result, prev)
	case !env.Meta.Cached || !seen:
		r.built[key] = append([]byte(nil), env.Result...)
	}
	return nil
}

func (r *serveRunner) pickHot(c *serveClient) hotEntry {
	u := c.rng.Float64()
	for i, w := range r.zipf {
		if u < w {
			return r.hot[i]
		}
	}
	return r.hot[len(r.hot)-1]
}

// step is one request of an op.
type step struct {
	method, path string
	body         []byte
	class        string
	// repeat marks a request the workload sends again with the same
	// bytes, whose cache hits the reply check compares.
	repeat bool
}

func (r *serveRunner) op(c, k int, rec *recorder, layered bool) opSample {
	cl := r.cl[c]
	u := cl.rng.Float64()
	class := serveMix[len(serveMix)-1].class
	for _, m := range serveMix {
		if u < m.upTo {
			class = m.class
			break
		}
	}
	// Build the op's requests before its clock starts.
	var steps []step
	var in *model.Instance // the op's instance, for the probes
	var inline []byte      // its inline JSON, when the op sends one
	post := func(path string, v any, class string, repeat bool) []byte {
		b, _ := json.Marshal(v)
		steps = append(steps, step{"POST", path, b, class, repeat})
		return b
	}
	fresh := func(kind string) *model.Instance {
		x := r.instance(kind, c*10_000_000+cl.fresh)
		cl.fresh++
		return x
	}
	switch class {
	case "hot_solve", "hot_estimate", "hot_schedule":
		h := r.pickHot(cl)
		in = h.in
		switch class {
		case "hot_solve":
			steps = append(steps, step{"POST", "/v1/solve", h.solveBody, class, true})
		case "hot_estimate":
			steps = append(steps, step{"POST", "/v1/estimate", h.estBody, class, true})
		default:
			// Solve first so an evicted schedule is rebuilt, then read it.
			format := "gantt&steps=64"
			if k%2 == 1 {
				format = "analyze"
			}
			steps = append(steps,
				step{"POST", "/v1/solve", h.solveBody, "hot_solve", true},
				step{"GET", "/v1/schedules/" + h.scheduleID + "?format=" + format, nil, class, false})
		}
	case "instance_post":
		in = fresh("independent")
		inline = post("/v1/instances", in, class, false)
	case "cold":
		// Mostly chains, so the cold medians sit inside the chains
		// cluster rather than on its seam with the cheaper independent
		// solves.
		kind := "chains"
		if k%3 == 0 {
			kind = "independent"
		}
		in = fresh(kind)
		inline, _ = json.Marshal(in)
		post("/v1/solve", map[string]any{"instance": json.RawMessage(inline), "solver": "auto"}, "cold_solve", kind == "independent")
		post("/v1/estimate", map[string]any{"instance": json.RawMessage(inline), "solver": "auto", "reps": estimateReps}, "cold_estimate", false)
		if kind == "independent" {
			cl.indep = append(cl.indep, sentInstance{in, inline})
		}
	case "revisit":
		if len(cl.indep) <= revisitLag {
			in = fresh("independent")
			inline, _ = json.Marshal(in)
		} else {
			in, inline = cl.indep[0].in, cl.indep[0].json
			cl.indep = cl.indep[1:]
		}
		post("/v1/solve", map[string]any{"instance": json.RawMessage(inline), "solver": "auto"}, "revisit_solve", true)
	case "ci":
		h := r.pickHot(cl)
		in = h.in
		post("/v1/estimate", map[string]any{
			"instance_id": h.id, "solver": "auto",
			"ci_half_width": 0.1, "max_reps": 8192, "sim_seed": 1000 + c*10_000_000 + k,
		}, "ci_estimate", false)
	case "optimal":
		in = fresh("optimal")
		inline, _ = json.Marshal(in)
		post("/v1/solve", map[string]any{"instance": json.RawMessage(inline), "solver": "optimal"}, "optimal_solve", false)
	}

	var direct []*http.Request
	if layered {
		for _, s := range steps {
			direct = append(direct, httptest.NewRequest(s.method, s.path, bytes.NewReader(s.body)))
		}
	}
	var out opSample
	replies := make([]reply, len(steps))
	rec.beginOp(k)
	for i, s := range steps {
		var req *http.Request
		if layered {
			req = direct[i]
		}
		var err error
		replies[i], err = r.send(cl, s, req, rec)
		out.opMS += replies[i].ms
		if err != nil {
			out.err = err
			break
		}
	}
	rec.endOp()
	if out.err != nil {
		return out
	}
	for i, s := range steps {
		rep := &replies[i]
		if out.err = r.check(s, rep); out.err != nil {
			return out
		}
		if s.method != "POST" || rep.meta.Cached || rep.meta.Coalesced {
			continue
		}
		switch s.path {
		case "/v1/solve":
			out.solveMS = append(out.solveMS, rep.ms)
			rec.add("serve.cold_solves", 1)
			if rep.meta.WarmBasis {
				rec.add("serve.warm_basis", 1)
			}
		case "/v1/estimate":
			var res serve.EstimateResult
			if err := json.Unmarshal(rep.result, &res); err != nil {
				out.err = fmt.Errorf("estimate reply: %w", err)
				return out
			}
			want := estimateReps
			if res.Rounds > 0 {
				want = res.Reps // the convergence loop chose its own count
			}
			if out.err = checkEstimate(s.class, res.Reps, res.Incomplete, want, res.Min, trivialLower(in)); out.err != nil {
				return out
			}
			rec.add("serve.cold_estimates", 1)
			if rep.meta.EngineCached {
				rec.add("serve.engine_cached", 1)
			}
			if res.Rounds > 0 {
				// Convergence loops run a seed-dependent number of
				// repetitions; they count in op_ms, not in the
				// fixed-size estimate samples.
				rec.add("serve.ci_estimates", 1)
				rec.add("serve.ci_rounds", float64(res.Rounds))
				continue
			}
			out.estMS = append(out.estMS, rep.ms)
			out.reps += res.Reps
		}
	}
	if class == "revisit" {
		// The instance is never sent again.
		r.mu.Lock()
		delete(r.built, steps[0].path+"\x00"+string(steps[0].body))
		r.mu.Unlock()
	}
	if rec != nil {
		out.err = r.probes(class, in, inline, replies[len(replies)-1], rec)
	}
	return out
}

// probes times, outside the op's clock, the layers the handler hides:
// instance decoding, fingerprinting, reply encoding, and on cold work
// the build's LP and rounding, or the exact solver's value iteration.
func (r *serveRunner) probes(class string, in *model.Instance, inline []byte, last reply, rec *recorder) error {
	if inline != nil {
		rec.beginProbe("model.decode")
		err := json.Unmarshal(inline, &model.Instance{})
		rec.end()
		if err != nil {
			return fmt.Errorf("decode probe: %w", err)
		}
	}
	rec.beginProbe("serve.fingerprint")
	serve.InstanceKey(in)
	rec.end()
	if last.result != nil {
		var v any
		if err := json.Unmarshal(last.body, &v); err != nil {
			return fmt.Errorf("encode probe: %w", err)
		}
		rec.beginProbe("serve.encode")
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		err := enc.Encode(v)
		rec.end()
		if err != nil {
			return fmt.Errorf("encode probe: %w", err)
		}
	}
	switch class {
	case "cold", "revisit":
		sol, err := solve.Strongest(in.Prec.Classify())
		if err != nil {
			return err
		}
		rec.beginProbe("solve.build." + sol.ID)
		res, err := sol.Build(in, core.DefaultParams())
		rec.end()
		if err != nil {
			return fmt.Errorf("build probe: %w", err)
		}
		noteLP(res, rec)
		return probeLP(in, rec)
	case "optimal":
		rec.beginProbe("opt.vi")
		_, _, st, err := opt.OptimalRegimenParallel(in, 1)
		rec.end()
		if err != nil {
			return fmt.Errorf("value iteration probe: %w", err)
		}
		rec.add("opt.solves", 1)
		rec.add("opt.states", float64(st.States))
		rec.add("opt.transitions", float64(st.Transitions))
	}
	return nil
}
