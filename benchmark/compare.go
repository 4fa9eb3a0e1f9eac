package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json the compare mode reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// resultSet maps "workload/metric" to the values of every run.
type resultSet map[string][]float64

// readResults reads a result set: the standard output of any number of
// runs, concatenated. Each result line belongs to the workload named
// by the record line before it.
func readResults(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := resultSet{}
	workload := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		var obj struct {
			Workload string                 `json:"workload"`
			Metrics  map[string]metricValue `json:"metrics"`
		}
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		switch {
		case obj.Workload != "":
			workload = obj.Workload
		case obj.Metrics != nil:
			if workload == "" {
				return nil, fmt.Errorf("%s:%d: result line before any record line", path, line)
			}
			for name, v := range obj.Metrics {
				set[workload+"/"+name] = append(set[workload+"/"+name], v.Value)
			}
		}
	}
	return set, sc.Err()
}

// quartiles returns Q1, median and Q3 as Python's
// statistics.quantiles(values, n=4) computes them (the "exclusive"
// method), so the compare mode agrees with the acceptance check.
func quartiles(values []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	ld, m := len(d), len(d)+1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// runCompare prints, for every (workload, metric) pair, the median and
// interquartile range of the base and new result sets, and flags an
// end-to-end metric whose new median is worse than the base median by
// more than its bound. A pair whose spread exceeds its bound on either
// side is unresolved: the runs cannot tell a change of that size from
// noise.
func runCompare(w io.Writer, basePath, newPath, specPath string) error {
	sp, err := readSpec(specPath)
	if err != nil {
		return err
	}
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	next, err := readResults(newPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median\tbase IQR\tnew median\tnew IQR\tchange\tbound\tverdict")
	worse := 0
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			v := compareOne(tw, wl.Name, m.Name, m.Unit, m.Better, m.Bound, base, next)
			if v == "WORSE" {
				worse++
			}
		}
		for _, m := range sp.PerLayer {
			compareOne(tw, wl.Name, m.Name, m.Unit, "", 0, base, next)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "%d end-to-end pair(s) worse than their bound\n", worse)
	return nil
}

// compareOne prints one row and returns its verdict.
func compareOne(w io.Writer, workload, metric, unit, better string, bound float64, base, next resultSet) string {
	key := workload + "/" + metric
	b, n := base[key], next[key]
	if len(b) == 0 || len(n) == 0 {
		return ""
	}
	b1, bm, b3 := quartiles(b)
	n1, nm, n3 := quartiles(n)
	change := 0.0
	if bm != 0 {
		change = (nm - bm) / bm
	}
	verdict := ""
	if bound > 0 {
		worseBy := change
		if better == "higher" {
			worseBy = -change
		}
		switch {
		case bm != 0 && (b3-b1)/bm > bound, nm != 0 && (n3-n1)/nm > bound:
			verdict = "unresolved"
		case worseBy > bound:
			verdict = "WORSE"
		case worseBy < -bound:
			verdict = "better"
		default:
			verdict = "ok"
		}
	}
	boundStr := ""
	if bound > 0 {
		boundStr = fmt.Sprintf("%.0f%%", bound*100)
	}
	fmt.Fprintf(w, "%s\t%s\t%s\t%.4g\t%.4g\t%.4g\t%.4g\t%+.1f%%\t%s\t%s\n",
		workload, metric, unit, bm, b3-b1, nm, n3-n1, change*100, boundStr, verdict)
	return verdict
}
