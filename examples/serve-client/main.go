// Command serve-client is a pure net/http client for a running
// suu-serve daemon: it submits an instance, solves it twice (the
// repeat should come back from the result cache), requests a
// CI-driven makespan estimate, and fetches the schedule as a Gantt
// chart, as JSON and as a prefix analysis — the full round-trip a
// scheduling client performs, using only the wire contract (no suu
// imports).
//
// Start the daemon, then run the client:
//
//	go run ./cmd/suu-serve -addr :8080 &
//	go run ./examples/serve-client -addr localhost:8080
//
// The CI serve-smoke job runs exactly this binary with -expect-cached,
// which makes a non-cached repeat solve (or any failed request) a
// non-zero exit. Every run also exits non-zero unless the schedule's
// JSON carries one entry per prefix step and its analysis counts the
// same prefix length.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"
)

// The request/response shapes are spelled out locally: this example
// documents the wire contract as a remote client would see it. The
// authoritative definitions live in internal/serve.
type meta struct {
	Cached    bool    `json:"cached"`
	Coalesced bool    `json:"coalesced"`
	BuildMS   float64 `json:"build_ms"`
}

type solveResult struct {
	ScheduleID string  `json:"schedule_id"`
	Solver     string  `json:"solver"`
	Kind       string  `json:"kind"`
	Guarantee  string  `json:"guarantee"`
	Class      string  `json:"class"`
	Adaptive   bool    `json:"adaptive"`
	PrefixLen  int     `json:"prefix_len"`
	LPValue    float64 `json:"lp_value"`
	Detail     string  `json:"detail"`
}

type estimateResult struct {
	Reps        int     `json:"reps"`
	Mean        float64 `json:"mean"`
	HalfWidth95 float64 `json:"half_width_95"`
	Engine      string  `json:"engine"`
	Converged   bool    `json:"converged"`
	Rounds      int     `json:"rounds"`
}

func main() {
	var (
		addr         = flag.String("addr", "localhost:8080", "suu-serve host:port")
		expectCached = flag.Bool("expect-cached", false, "exit non-zero unless the repeat solve is a cache hit")
	)
	flag.Parse()
	base := "http://" + *addr
	client := &http.Client{Timeout: 30 * time.Second}

	// post sends a JSON body and decodes the raw response into out.
	post := func(path string, body any, out any) {
		data, err := json.Marshal(body)
		if err != nil {
			log.Fatal(err)
		}
		resp, err := client.Post(base+path, "application/json", bytes.NewReader(data))
		if err != nil {
			log.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			log.Fatalf("POST %s: read: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("POST %s: HTTP %d: %s", path, resp.StatusCode, raw)
		}
		if err := json.Unmarshal(raw, out); err != nil {
			log.Fatalf("POST %s: decode: %v", path, err)
		}
	}
	// Solve and estimate responses arrive in a {result, meta} envelope:
	// result is a pure function of the request, meta describes how this
	// particular response was produced (cache hit? build time?).
	postEnveloped := func(path string, body any, out any) meta {
		var envelope struct {
			Result json.RawMessage `json:"result"`
			Meta   meta            `json:"meta"`
		}
		post(path, body, &envelope)
		if out != nil {
			if err := json.Unmarshal(envelope.Result, out); err != nil {
				log.Fatalf("POST %s: result: %v", path, err)
			}
		}
		return envelope.Meta
	}

	// A small grid-computing shape: 12 jobs in 3 chains of 4, four
	// machines with mixed per-(machine, job) success probabilities.
	const jobs, machines = 12, 4
	p := make([][]float64, machines)
	for i := range p {
		p[i] = make([]float64, jobs)
		for j := range p[i] {
			p[i][j] = 0.15 + 0.7*float64((i*7+j*3)%11)/10
		}
	}
	var edges [][2]int
	for c := 0; c < 3; c++ {
		for k := 0; k < 3; k++ {
			edges = append(edges, [2]int{c*4 + k, c*4 + k + 1})
		}
	}
	instance := map[string]any{"jobs": jobs, "machines": machines, "p": p, "edges": edges}

	// 1. Submit: the daemon returns a content-derived instance id that
	// later requests can reference instead of re-sending the matrix.
	var inst struct {
		ID    string `json:"id"`
		Class string `json:"class"`
		Width int    `json:"width"`
	}
	post("/v1/instances", instance, &inst)
	fmt.Printf("submitted: id %s, class %s, width %d\n", inst.ID, inst.Class, inst.Width)

	// 2. Solve, then solve again. The second call must not rebuild:
	// identical requests are content-addressed, so the repeat is a
	// cache hit with a byte-identical result.
	solveReq := map[string]any{"instance_id": inst.ID, "solver": "auto"}
	var sol solveResult
	m := postEnveloped("/v1/solve", solveReq, &sol)
	fmt.Printf("solved:    %s via %s (%s), guarantee %s, built in %.1fms\n",
		sol.ScheduleID, sol.Solver, sol.Kind, sol.Guarantee, m.BuildMS)
	m = postEnveloped("/v1/solve", solveReq, &sol)
	fmt.Printf("repeat:    cached=%v\n", m.Cached)
	if *expectCached && !m.Cached {
		log.Fatal("repeat solve was not served from cache")
	}

	// 3. Estimate to a target confidence half-width; the daemon grows
	// repetitions until the 95% CI is tight enough (or max_reps).
	var est estimateResult
	postEnveloped("/v1/estimate", map[string]any{
		"schedule_id": sol.ScheduleID, "sim_seed": 7, "ci_half_width": 0.1,
	}, &est)
	fmt.Printf("estimate:  E[makespan] ≈ %.3f ± %.3f (n=%d, %s engine, converged=%v in %d rounds)\n",
		est.Mean, est.HalfWidth95, est.Reps, est.Engine, est.Converged, est.Rounds)

	// 4. Fetch the schedule itself: as a Gantt chart, as JSON (the
	// prefix expanded to one assignment per step, plus the round-robin
	// tail's job order) and as a prefix analysis.
	get := func(format string) []byte {
		path := "/v1/schedules/" + sol.ScheduleID + "?format=" + format
		resp, err := client.Get(base + path)
		if err != nil {
			log.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			log.Fatalf("GET %s: HTTP %d (%v): %s", path, resp.StatusCode, err, raw)
		}
		return raw
	}
	fmt.Printf("schedule (first steps):\n%s", get("gantt&steps=6"))
	var schedule struct {
		Machines  int     `json:"machines"`
		Steps     [][]int `json:"steps"`
		TailOrder []int   `json:"tail_order"`
	}
	if err := json.Unmarshal(get("json"), &schedule); err != nil {
		log.Fatalf("schedule JSON: %v", err)
	}
	if len(schedule.Steps) != sol.PrefixLen || schedule.Machines != machines {
		log.Fatalf("schedule JSON has %d steps on %d machines, want prefix_len %d on %d",
			len(schedule.Steps), schedule.Machines, sol.PrefixLen, machines)
	}
	var analysis struct {
		Steps int
	}
	if err := json.Unmarshal(get("analyze"), &analysis); err != nil {
		log.Fatalf("schedule analysis: %v", err)
	}
	if analysis.Steps != sol.PrefixLen {
		log.Fatalf("schedule analysis counts %d steps, want prefix_len %d", analysis.Steps, sol.PrefixLen)
	}
	fmt.Printf("schedule:  %d prefix steps on %d machines, tail over %d jobs\n",
		len(schedule.Steps), schedule.Machines, len(schedule.TailOrder))
}
