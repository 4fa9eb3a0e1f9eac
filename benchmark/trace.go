package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans live
// in memory for the whole traced run and are written out at its end.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"` // index into the recorder's spans; -1 at top level
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Probe marks a re-solve or re-walk the benchmark adds only to
	// measure a layer the op's own calls hide (the LP inside
	// solve.Build, for instance). Probe time is excluded from the op's
	// wall-clock and from the coverage sum. A top-level span is an op
	// root unless it is a probe run after its op ended.
	Probe bool `json:"probe,omitempty"`
}

// recorder collects spans and counters for one client goroutine. A nil
// *recorder is the untraced run: every method is a no-op on nil, so
// the op code is the same in both runs.
type recorder struct {
	origin time.Time
	spans  []span
	open   []int // stack of open span indices
	op     int
	counts map[string]float64
}

func newRecorder(origin time.Time) *recorder {
	return &recorder{origin: origin, counts: map[string]float64{}}
}

// beginOp opens the root span of op k.
func (r *recorder) beginOp(k int) {
	if r == nil {
		return
	}
	r.op = k
	r.push("op", false)
}

// endOp closes the root span opened by beginOp.
func (r *recorder) endOp() {
	if r == nil {
		return
	}
	r.end()
}

// begin opens a layer span under the innermost open span.
func (r *recorder) begin(name string) {
	if r != nil {
		r.push(name, false)
	}
}

// beginProbe opens a probe span (see span.Probe).
func (r *recorder) beginProbe(name string) {
	if r != nil {
		r.push(name, true)
	}
}

func (r *recorder) push(name string, probe bool) {
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{
		Name: name, Op: r.op, Parent: parent, Probe: probe,
		Start: time.Since(r.origin).Nanoseconds(),
	})
	r.open = append(r.open, len(r.spans)-1)
}

// end closes the innermost open span.
func (r *recorder) end() {
	if r == nil {
		return
	}
	n := len(r.open)
	r.spans[r.open[n-1]].End = time.Since(r.origin).Nanoseconds()
	r.open = r.open[:n-1]
}

// add accumulates a counter (pivots, states, engine choices, ...).
func (r *recorder) add(name string, v float64) {
	if r != nil {
		r.counts[name] += v
	}
}

// layerStat is the self time and call count of one span name.
type layerStat struct {
	selfNS int64
	calls  int
}

// traceSummary is what the traced run derives from its spans.
type traceSummary struct {
	layers map[string]layerStat
	counts map[string]float64
	ops    int
	// opNS is the summed op wall-clock with probe time removed; covered
	// is the part of it spent inside non-probe layer spans.
	opNS, coveredNS int64
}

// mean returns the mean self time per call of span name in the given
// unit (1e6 for ms, 1e3 for µs), or 0 when the workload never made the
// call.
func (s *traceSummary) mean(name string, unitNS float64) float64 {
	st := s.layers[name]
	if st.calls == 0 {
		return 0
	}
	return float64(st.selfNS) / float64(st.calls) / unitNS
}

// coverage is the share of op wall-clock inside non-probe layer spans.
func (s *traceSummary) coverage() float64 {
	if s.opNS == 0 {
		return 0
	}
	return float64(s.coveredNS) / float64(s.opNS)
}

// summarize merges the recorders of every client and computes each
// layer's self time: a span's duration minus the part its children
// cover.
func summarize(recs []*recorder) *traceSummary {
	s := &traceSummary{layers: map[string]layerStat{}, counts: map[string]float64{}}
	for _, r := range recs {
		child := make([]int64, len(r.spans))
		probeNS := make([]int64, len(r.spans)) // probe time under each op root
		root := make([]int, len(r.spans))
		for i, sp := range r.spans {
			d := sp.End - sp.Start
			root[i] = i
			if sp.Parent >= 0 {
				child[sp.Parent] += d
				root[i] = root[sp.Parent]
			}
			if sp.Probe && (sp.Parent < 0 || !r.spans[sp.Parent].Probe) {
				probeNS[root[i]] += d
			}
		}
		for i, sp := range r.spans {
			d := sp.End - sp.Start
			if sp.Parent < 0 && !sp.Probe {
				s.ops++
				s.opNS += d - probeNS[i]
				continue
			}
			st := s.layers[sp.Name]
			st.selfNS += d - child[i]
			st.calls++
			s.layers[sp.Name] = st
			if !sp.Probe && sp.Parent >= 0 && r.spans[sp.Parent].Parent < 0 {
				s.coveredNS += d
			}
		}
		for k, v := range r.counts {
			s.counts[k] += v
		}
	}
	return s
}

// writeSpans writes every span as one JSON line, with the client index
// prepended, to dir/<workload>-seed<seed>.jsonl.
func writeSpans(dir, workload string, seed int64, recs []*recorder) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for c, r := range recs {
		for _, sp := range r.spans {
			if err := enc.Encode(struct {
				Client int `json:"client"`
				span
			}{c, sp}); err != nil {
				f.Close()
				return "", err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
