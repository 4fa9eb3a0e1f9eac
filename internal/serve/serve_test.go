package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"suu/internal/model"
	"suu/internal/workload"
)

// TestInstanceKeyCanonicalization pins the fingerprint contract:
// identical content keys identically regardless of edge insertion
// order, and any perturbation — a probability, an edge, a dimension —
// keys apart.
func TestInstanceKeyCanonicalization(t *testing.T) {
	base := func() *model.Instance {
		in := model.New(4, 2)
		for i := 0; i < 2; i++ {
			for j := 0; j < 4; j++ {
				in.P[i][j] = 0.1 + 0.1*float64(i+j)
			}
		}
		in.Prec.MustEdge(0, 2)
		in.Prec.MustEdge(1, 3)
		return in
	}
	key := InstanceKey(base())

	// Same dag, edges inserted in the opposite order.
	reordered := model.New(4, 2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 4; j++ {
			reordered.P[i][j] = 0.1 + 0.1*float64(i+j)
		}
	}
	reordered.Prec.MustEdge(1, 3)
	reordered.Prec.MustEdge(0, 2)
	if got := InstanceKey(reordered); got != key {
		t.Errorf("edge insertion order changed the key: %s vs %s", got, key)
	}

	// Perturbations: every one must key apart from the base and from
	// each other.
	seen := map[string]string{key: "base"}
	perturb := map[string]func(in *model.Instance){
		"probability":  func(in *model.Instance) { in.P[1][2] += 1e-9 },
		"edge-added":   func(in *model.Instance) { in.Prec.MustEdge(2, 3) },
		"edge-moved":   func(in *model.Instance) { in.Prec.MustEdge(0, 3) },
		"prob-swapped": func(in *model.Instance) { in.P[0][0], in.P[0][1] = in.P[0][1], in.P[0][0] },
	}
	for name, mutate := range perturb {
		in := base()
		mutate(in)
		k := InstanceKey(in)
		if prev, dup := seen[k]; dup {
			t.Errorf("perturbation %q collides with %q", name, prev)
		}
		seen[k] = name
	}
}

// TestCacheLRUEviction fills a tiny cache past its budget and checks
// strict LRU order: the oldest unpromoted entries fall out, promoted
// ones survive.
func TestCacheLRUEviction(t *testing.T) {
	// Each entry is charged size+entryOverhead = 1128 bytes.
	c := NewCache(4 * 1128)
	put := func(k string) { c.Put(k, k, 1000) }
	for _, k := range []string{"a", "b", "c", "d"} {
		put(k)
	}
	if st := c.Stats(); st.Entries != 4 || st.Evictions != 0 {
		t.Fatalf("pre-eviction stats %+v", st)
	}
	// Promote "a"; insert "e": "b" (now coldest) must fall out.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	put("e")
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction despite being LRU")
	}
	if _, ok := c.Get("a"); !ok {
		t.Error("promoted entry a was evicted")
	}
	st := c.Stats()
	if st.Entries != 4 || st.Evictions != 1 {
		t.Errorf("post-eviction stats %+v", st)
	}
	if st.Bytes > st.MaxBytes {
		t.Errorf("bytes %d above budget %d", st.Bytes, st.MaxBytes)
	}

	// An entry larger than the whole budget is admitted alone.
	c.Put("huge", "huge", 1<<20)
	if _, ok := c.Get("huge"); !ok {
		t.Error("oversized entry rejected")
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("oversized entry did not evict the rest: %+v", st)
	}
}

// TestCacheCoalescing checks single-flight: N concurrent misses on one
// key run exactly one build, and every caller gets the same value.
func TestCacheCoalescing(t *testing.T) {
	c := NewCache(1 << 20)
	const n = 32
	builds := 0
	gate := make(chan struct{})
	var wg sync.WaitGroup
	vals := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, _, err := c.Do("k", func() (any, int64, error) {
				builds++ // safe: single-flight means one writer
				<-gate   // hold the build open so arrivals coalesce
				return "value", 8, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i] = v
		}(i)
	}
	// Let every goroutine reach Do before releasing the build. The
	// coalesced counter tells us when the waiters have piled up; spin
	// until the herd is in place (all but the builder).
	for c.Stats().Coalesced < n-1 {
	}
	close(gate)
	wg.Wait()
	if builds != 1 {
		t.Fatalf("ran %d builds, want 1", builds)
	}
	for i, v := range vals {
		if v != "value" {
			t.Fatalf("caller %d got %v", i, v)
		}
	}
	st := c.Stats()
	if st.Coalesced != n-1 || st.Misses != 1 {
		t.Errorf("stats %+v, want 1 miss and %d coalesced", st, n-1)
	}
}

// ---- HTTP round-trips ----

func testServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

type rawReply struct {
	Result json.RawMessage `json:"result"`
	Meta   Meta            `json:"meta"`
	Error  string          `json:"error"`
}

func post(t *testing.T, url string, body any) (int, rawReply) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var r rawReply
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatalf("decode reply: %v", err)
	}
	return resp.StatusCode, r
}

func testInstance(seed int64) *model.Instance {
	return workload.Independent(workload.Config{Jobs: 10, Machines: 3, Seed: seed})
}

// TestServeCachedBitIdentical is the acceptance pin: a cached reply's
// result object is byte-identical to the cold reply's, for solve and
// for estimate, while the meta object flips to cached.
func TestServeCachedBitIdentical(t *testing.T) {
	_, ts := testServer(t)
	in := testInstance(7)

	solveReq := map[string]any{"instance": in, "solver": "auto", "seed": 3}
	code, cold := post(t, ts.URL+"/v1/solve", solveReq)
	if code != http.StatusOK {
		t.Fatalf("cold solve: %d %s", code, cold.Error)
	}
	if cold.Meta.Cached {
		t.Fatal("first solve reported cached")
	}
	if cold.Meta.BuildMS <= 0 {
		t.Error("cold solve reported no build time")
	}
	code, warm := post(t, ts.URL+"/v1/solve", solveReq)
	if code != http.StatusOK || !warm.Meta.Cached {
		t.Fatalf("repeat solve: code %d, meta %+v", code, warm.Meta)
	}
	if !bytes.Equal(cold.Result, warm.Result) {
		t.Errorf("cached solve result differs from cold:\ncold: %s\nwarm: %s", cold.Result, warm.Result)
	}

	var sr SolveResult
	if err := json.Unmarshal(cold.Result, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.ScheduleID == "" {
		t.Fatal("no schedule id")
	}

	estReq := map[string]any{"schedule_id": sr.ScheduleID, "reps": 300, "sim_seed": 11}
	code, coldEst := post(t, ts.URL+"/v1/estimate", estReq)
	if code != http.StatusOK {
		t.Fatalf("cold estimate: %d %s", code, coldEst.Error)
	}
	code, warmEst := post(t, ts.URL+"/v1/estimate", estReq)
	if code != http.StatusOK || !warmEst.Meta.Cached {
		t.Fatalf("repeat estimate: code %d, meta %+v", code, warmEst.Meta)
	}
	if !bytes.Equal(coldEst.Result, warmEst.Result) {
		t.Errorf("cached estimate result differs from cold:\ncold: %s\nwarm: %s", coldEst.Result, warmEst.Result)
	}

	// The same estimate routed by inline instance (not schedule_id)
	// must also hit: content addressing collapses the two forms.
	code, byContent := post(t, ts.URL+"/v1/estimate",
		map[string]any{"instance": in, "solver": "auto", "seed": 3, "reps": 300, "sim_seed": 11})
	if code != http.StatusOK || !byContent.Meta.Cached {
		t.Fatalf("estimate by content: code %d, meta %+v", code, byContent.Meta)
	}
	if !bytes.Equal(coldEst.Result, byContent.Result) {
		t.Error("estimate by content differs from estimate by schedule_id")
	}
}

// TestServeAutoSharesCacheWithExplicit checks that "auto" resolves
// before keying: solving with the concrete id auto picks must hit
// auto's entry.
func TestServeAutoSharesCacheWithExplicit(t *testing.T) {
	_, ts := testServer(t)
	in := testInstance(9)
	_, cold := post(t, ts.URL+"/v1/solve", map[string]any{"instance": in, "solver": "auto"})
	var sr SolveResult
	if err := json.Unmarshal(cold.Result, &sr); err != nil {
		t.Fatal(err)
	}
	_, explicit := post(t, ts.URL+"/v1/solve", map[string]any{"instance": in, "solver": sr.Solver})
	if !explicit.Meta.Cached {
		t.Errorf("explicit %q solve missed auto's cache entry", sr.Solver)
	}
}

// TestServeEstimateConvergence drives the ci_half_width loop and
// checks the convergence contract and its determinism.
func TestServeEstimateConvergence(t *testing.T) {
	_, ts := testServer(t)
	in := testInstance(13)
	req := map[string]any{"instance": in, "ci_half_width": 0.08, "sim_seed": 5}
	code, r := post(t, ts.URL+"/v1/estimate", req)
	if code != http.StatusOK {
		t.Fatalf("estimate: %d %s", code, r.Error)
	}
	var er EstimateResult
	if err := json.Unmarshal(r.Result, &er); err != nil {
		t.Fatal(err)
	}
	if !er.Converged {
		t.Fatalf("loop did not converge: %+v", er)
	}
	if er.HalfWidth95 > er.TargetHalfWidth {
		t.Errorf("half-width %v above target %v", er.HalfWidth95, er.TargetHalfWidth)
	}
	if er.Rounds < 2 || er.Reps <= 64 {
		t.Errorf("expected the loop to grow reps from 64 (rounds=%d reps=%d)", er.Rounds, er.Reps)
	}
	// Deterministic: the cached repeat is pinned elsewhere; re-check
	// against a FRESH server so the loop itself (not the cache) is
	// what's deterministic.
	_, ts2 := testServer(t)
	_, r2 := post(t, ts2.URL+"/v1/estimate", req)
	if !bytes.Equal(r.Result, r2.Result) {
		t.Error("convergence loop is not deterministic across servers")
	}
}

// TestServeScheduleFormats round-trips the rendering endpoint.
func TestServeScheduleFormats(t *testing.T) {
	_, ts := testServer(t)
	_, r := post(t, ts.URL+"/v1/solve", map[string]any{"instance": testInstance(17)})
	var sr SolveResult
	if err := json.Unmarshal(r.Result, &sr); err != nil {
		t.Fatal(err)
	}
	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b bytes.Buffer
		b.ReadFrom(resp.Body)
		return resp.StatusCode, b.String()
	}
	if code, body := get("/v1/schedules/" + sr.ScheduleID); code != http.StatusOK || !strings.Contains(body, `"steps"`) {
		t.Errorf("json format: %d %.120s", code, body)
	}
	if code, body := get("/v1/schedules/" + sr.ScheduleID + "?format=gantt&steps=5"); code != http.StatusOK || body == "" {
		t.Errorf("gantt format: %d", code)
	}
	if code, body := get("/v1/schedules/" + sr.ScheduleID + "?format=analyze"); code != http.StatusOK || !strings.Contains(body, "Utilization") {
		t.Errorf("analyze format: %d %.120s", code, body)
	}
	if code, _ := get("/v1/schedules/no-such-id"); code != http.StatusNotFound {
		t.Errorf("missing schedule: %d, want 404", code)
	}

	// An adaptive schedule has no prefix to render.
	_, r = post(t, ts.URL+"/v1/solve", map[string]any{"instance": testInstance(17), "solver": "adaptive"})
	if err := json.Unmarshal(r.Result, &sr); err != nil {
		t.Fatal(err)
	}
	if code, _ := get("/v1/schedules/" + sr.ScheduleID); code != http.StatusConflict {
		t.Errorf("adaptive schedule render: %d, want 409", code)
	}
}

// TestServeStatusAndMetrics checks the introspection endpoints carry
// the counters the load harness and CI smoke read.
func TestServeStatusAndMetrics(t *testing.T) {
	s, ts := testServer(t)
	in := testInstance(19)
	for i := 0; i < 3; i++ {
		post(t, ts.URL+"/v1/solve", map[string]any{"instance": in, "solver": "lp-oblivious"})
	}
	st := s.StatusSnapshot()
	rs := st.Caches["results"]
	if rs.Hits < 2 || rs.Misses < 1 {
		t.Errorf("results cache counters %+v, want ≥2 hits and ≥1 miss", rs)
	}
	if bs := st.Caches["bases"]; bs.Entries == 0 {
		t.Error("lp-oblivious solve deposited no basis")
	}

	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Endpoints map[string]EndpointMetrics `json:"endpoints"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	ep, ok := m.Endpoints["solve"]
	if !ok || ep.Count != 3 || ep.P50MS < 0 {
		t.Errorf("solve endpoint metrics %+v", ep)
	}
}

// TestServeErrors spot-checks the failure paths.
func TestServeErrors(t *testing.T) {
	_, ts := testServer(t)
	if code, r := post(t, ts.URL+"/v1/solve", map[string]any{"instance_id": "nope"}); code != http.StatusBadRequest || r.Error == "" {
		t.Errorf("unknown instance_id: %d %q", code, r.Error)
	}
	if code, _ := post(t, ts.URL+"/v1/solve", map[string]any{"instance": testInstance(1), "solver": "nope"}); code != http.StatusBadRequest {
		t.Errorf("unknown solver: %d", code)
	}
	bad := map[string]any{"jobs": 2, "machines": 1, "p": [][]float64{{0.5}}}
	if code, _ := post(t, ts.URL+"/v1/solve", map[string]any{"instance": bad}); code != http.StatusBadRequest {
		t.Errorf("malformed instance: %d", code)
	}
}

// TestCacheHoldBuild checks the load harness's herd hold: the held
// build starts only once every follower has coalesced onto it, and a
// hold whose followers never all arrive gives up at its deadline.
func TestCacheHoldBuild(t *testing.T) {
	c := NewCache(1 << 20)
	const n = 16
	c.holdBuild("k", n-1, time.Minute)
	var joined uint64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Do("k", func() (any, int64, error) {
				joined = c.Stats().Coalesced // safe: single-flight means one writer
				return "value", 8, nil
			})
		}()
	}
	wg.Wait()
	if joined != n-1 {
		t.Errorf("held build started with %d followers joined, want %d", joined, n-1)
	}

	c.holdBuild("lonely", 3, 10*time.Millisecond)
	start := time.Now()
	if v, _, _, err := c.Do("lonely", func() (any, int64, error) { return "value", 8, nil }); err != nil || v != "value" {
		t.Fatalf("held build returned %v, %v", v, err)
	}
	if el := time.Since(start); el < 10*time.Millisecond {
		t.Errorf("hold released after %v, before its deadline", el)
	}
	if v, hit, _, _ := c.Do("k", nil); !hit || v != "value" {
		t.Errorf("held build's value was not cached: %v hit=%v", v, hit)
	}
}

// TestServeBodyCap posts a body one byte over maxBodyBytes to each POST
// endpoint, which must answer 413 with the JSON error body, and then a
// valid body, which must still be served. The oversized body is one
// JSON object whose closing brace is its last byte, so the decoder
// reads every byte before it could finish.
func TestServeBodyCap(t *testing.T) {
	_, ts := testServer(t)
	over := bytes.Repeat([]byte(" "), maxBodyBytes+1)
	over[0], over[len(over)-1] = '{', '}'
	in := testInstance(5)
	for _, c := range []struct {
		path  string
		valid any
	}{
		{"/v1/instances", in},
		{"/v1/solve", map[string]any{"instance": in, "solver": "auto", "seed": 3}},
		{"/v1/estimate", map[string]any{"instance": in, "reps": 64, "sim_seed": 2}},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", bytes.NewReader(over))
		if err != nil {
			t.Fatal(err)
		}
		var r rawReply
		err = json.NewDecoder(resp.Body).Decode(&r)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge || err != nil || !strings.Contains(r.Error, "exceeds") {
			t.Errorf("%s, %d-byte body: status %d, error %q (decode: %v), want 413 with a JSON error", c.path, len(over), resp.StatusCode, r.Error, err)
		}
		if code, r := post(t, ts.URL+c.path, c.valid); code != http.StatusOK {
			t.Errorf("%s, valid body: status %d, error %q", c.path, code, r.Error)
		}
	}
}
