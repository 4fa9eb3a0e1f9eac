package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"sync"
	"time"

	"suu/internal/exp"
	"suu/internal/model"
	"suu/internal/stats"
	"suu/internal/workload"
)

// Benchmark is the serving layer's load harness: a storm of concurrent
// clients driving a mixed repeat/fresh workload through the full
// handler stack, recorded as the BENCH_sim.json serve section.
//
// The storm runs in-process (client goroutines calling the handler
// directly), so the record measures the service stack — routing,
// fingerprinting, the caches, single-flight — without kernel socket
// noise; the CI serve-smoke job covers the real TCP path through the
// daemon. Three request classes mix:
//
//   - repeat solves and estimates of a pre-warmed hot set, referenced
//     by instance_id as a steady client would (cache hits);
//   - fresh solves of never-before-seen chains instances (cold LP
//     builds);
//   - one deliberately expensive UNwarmed solve (the exact solver)
//     requested by every client at the starting gun, so the
//     single-flight path runs under a real thundering herd and the
//     coalescing counter is exercised. Its build waits until every
//     other client has joined it (or herdDeadline passes), so the
//     record reads clients−1 coalesced however fast the solve is.
//
// Hit latency is measured against cold-build latency; the CI gate
// asserts the p50 ratio stays ≥10x.
func Benchmark(cfg exp.Config) *exp.ServeBench {
	srv := New(Config{})
	const clients = 1000
	perClient := 8
	if cfg.Quick {
		perClient = 3
	}
	const nHot = 8
	hot := make([]*model.Instance, nHot)
	for i := range hot {
		hot[i] = workload.Independent(workload.Config{Jobs: 12, Machines: 4, Seed: cfg.Seed + int64(i)})
	}
	// The thundering-herd target: never pre-warmed, and held back
	// until the other clients have all joined its one cold build.
	herd := workload.Independent(workload.Config{Jobs: 11, Machines: 3, Seed: cfg.Seed + 977})
	srv.results.holdBuild(solveKey(InstanceKey(herd), "optimal", 1), clients-1, herdDeadline)

	type reply struct {
		meta Meta
		code int
		ms   float64
	}
	do := func(path string, body any) reply {
		data, err := json.Marshal(body)
		if err != nil {
			return reply{code: 599}
		}
		req := httptest.NewRequest("POST", path, bytes.NewReader(data))
		rec := httptest.NewRecorder()
		start := time.Now()
		srv.ServeHTTP(rec, req)
		r := reply{code: rec.Code, ms: float64(time.Since(start).Nanoseconds()) / 1e6}
		var parsed struct {
			Meta Meta `json:"meta"`
		}
		json.Unmarshal(rec.Body.Bytes(), &parsed)
		r.meta = parsed.Meta
		return r
	}

	// Pre-warm the hot set (submit, solve, estimate) so repeat
	// requests measure hits, not first builds; keep the ids so the
	// storm references instances the way a steady client would.
	hotIDs := make([]string, nHot)
	for i, in := range hot {
		hotIDs[i] = InstanceKey(in)
		do("/v1/instances", in)
		do("/v1/solve", map[string]any{"instance_id": hotIDs[i], "solver": "auto"})
		do("/v1/estimate", map[string]any{"instance_id": hotIDs[i], "solver": "auto", "reps": 200, "sim_seed": 7})
	}

	var (
		mu             sync.Mutex
		coldMS, hitMS  []float64
		errors, reqs   int
		freshInstances int
	)
	record := func(r reply, wantCold bool) {
		mu.Lock()
		defer mu.Unlock()
		reqs++
		switch {
		case r.code != 200:
			errors++
		case r.meta.Cached:
			hitMS = append(hitMS, r.ms)
		case wantCold && !r.meta.Coalesced:
			coldMS = append(coldMS, r.ms)
		}
	}

	startGate := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-startGate
			// Thundering herd: everyone asks for the same cold solve.
			record(do("/v1/solve", map[string]any{"instance": herd, "solver": "optimal"}), false)
			for i := 0; i < perClient; i++ {
				idx := c*perClient + i
				switch {
				case idx%5 == 4:
					// Fresh chains instance: a cold LP pipeline mid-storm.
					in := workload.Chains(workload.Config{Jobs: 32, Machines: 8, Seed: cfg.Seed + 10_000 + int64(idx)}, 4)
					mu.Lock()
					freshInstances++
					mu.Unlock()
					record(do("/v1/solve", map[string]any{"instance": in, "solver": "auto"}), true)
				case idx%2 == 0:
					record(do("/v1/solve", map[string]any{"instance_id": hotIDs[idx%nHot], "solver": "auto"}), false)
				default:
					record(do("/v1/estimate", map[string]any{"instance_id": hotIDs[idx%nHot], "solver": "auto", "reps": 200, "sim_seed": 7}), false)
				}
			}
		}(c)
	}
	start := time.Now()
	close(startGate)
	wg.Wait()
	wallMS := float64(time.Since(start).Nanoseconds()) / 1e6

	st := srv.StatusSnapshot().Caches["results"]
	b := &exp.ServeBench{
		Clients:        clients,
		Requests:       reqs,
		HotInstances:   nHot,
		FreshInstances: freshInstances,
		WallMS:         wallMS,
		ColdP50MS:      quantileOrZero(coldMS, 0.5),
		ColdP99MS:      quantileOrZero(coldMS, 0.99),
		HitP50MS:       quantileOrZero(hitMS, 0.5),
		HitP99MS:       quantileOrZero(hitMS, 0.99),
		Hits:           st.Hits,
		Misses:         st.Misses,
		Coalesced:      st.Coalesced,
		Evictions:      st.Evictions,
		Errors:         errors,
	}
	if wallMS > 0 {
		b.RequestsPerSec = float64(reqs) / (wallMS / 1e3)
	}
	if b.HitP50MS > 0 {
		b.SpeedupP50 = b.ColdP50MS / b.HitP50MS
	}
	if total := st.Hits + st.Misses; total > 0 {
		b.HitRate = float64(st.Hits) / float64(total)
	}
	if errors > 0 {
		b.Error = "requests failed; see errors"
	}
	return b
}

// herdDeadline bounds how long the herd's build waits for its
// followers, so a lost client delays the storm instead of hanging it.
const herdDeadline = 30 * time.Second

func quantileOrZero(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Quantile(xs, q)
}
