package exp

import (
	"suu/internal/core"
	"suu/internal/model"
	"suu/internal/sim"
	"suu/internal/workload"
)

// LPBench is one row of the LP-layer benchmark: formulation build +
// simplex solve for one (family, size), sparse revised simplex vs the
// dense tableau oracle. Dense is skipped (0) above denseCellBudget,
// where the tableau would dominate the whole suite's runtime.
type LPBench struct {
	// LP names the relaxation ("LP1" for chains, "LP2" for
	// independent).
	LP       string `json:"lp"`
	Family   string `json:"family"`
	Jobs     int    `json:"jobs"`
	Machines int    `json:"machines"`
	// Rows/Cols/Nnz are the working LP's dimensions on the sparse path
	// (lazily generated window rows included only when they bound the
	// optimum — compare against the dense formulation's full row count
	// in DenseRows).
	Rows      int     `json:"rows"`
	Cols      int     `json:"cols"`
	Nnz       int     `json:"nnz"`
	DenseRows int     `json:"dense_rows"`
	Pivots    int     `json:"pivots"`
	SparseMS  float64 `json:"sparse_ms"`
	DenseMS   float64 `json:"dense_ms,omitempty"`
	Speedup   float64 `json:"speedup,omitempty"`
	TStar     float64 `json:"t_star"`
	Error     string  `json:"error,omitempty"`
}

// denseCellBudget caps rows×cols of the dense tableau cells the LP
// benchmark is willing to pay for; beyond it only the sparse path
// runs (that is the point of the sparse solver).
const denseCellBudget = 1 << 22

type lpBenchCase struct {
	lp       string
	family   string
	jobs     int
	machines int
	chains   int
}

func lpBenchCases(quick bool) []lpBenchCase {
	if quick {
		return []lpBenchCase{
			{"LP1", "chains", 24, 6, 4},
			{"LP1", "chains", 48, 8, 4},
			{"LP1", "chains", 128, 8, 8},
			{"LP2", "independent", 64, 16, 0},
			{"LP2", "independent", 256, 16, 0},
		}
	}
	return []lpBenchCase{
		{"LP1", "chains", 24, 6, 4},
		{"LP1", "chains", 48, 8, 4},
		{"LP1", "chains", 96, 12, 8},
		{"LP1", "chains", 256, 8, 16},
		{"LP2", "independent", 64, 16, 0},
		{"LP2", "independent", 128, 16, 0},
		{"LP2", "independent", 512, 16, 0},
	}
}

// LPBenchmarks benchmarks the LP layer in isolation: formulation
// build + solve per family/size, sparse and dense timed in pairs, so
// LP regressions are visible without timing full solver builds.
func LPBenchmarks(cfg Config) []LPBench {
	var out []LPBench
	for _, c := range lpBenchCases(cfg.Quick) {
		seed := sim.SeedFor(cfg.Seed, "lp-bench", int64(c.jobs), int64(c.machines))
		var in *model.Instance
		var chains [][]int
		var jobs []int
		if c.lp == "LP1" {
			in = workload.Chains(workload.Config{Jobs: c.jobs, Machines: c.machines, Seed: seed}, c.chains)
			var err error
			if chains, err = in.Prec.Chains(); err != nil {
				out = append(out, LPBench{LP: c.lp, Family: c.family, Jobs: c.jobs, Machines: c.machines, Error: err.Error()})
				continue
			}
		} else {
			in = workload.Independent(workload.Config{Jobs: c.jobs, Machines: c.machines, Seed: seed})
			jobs = make([]int, in.N)
			for j := range jobs {
				jobs[j] = j
			}
		}
		solveLP := func(dense bool) (*core.FracSolution, error) {
			if c.lp == "LP1" {
				return core.SolveLP1Bench(in, chains, 0.5, dense)
			}
			return core.SolveLP2Bench(in, jobs, 0.5, dense)
		}
		fs, err := solveLP(false)
		if err != nil {
			out = append(out, LPBench{LP: c.lp, Family: c.family, Jobs: c.jobs, Machines: c.machines, Error: err.Error()})
			continue
		}
		// Dense row count: the full formulation (all window rows for
		// LP1 plus the synthesized d≥1 bound rows), independent of what
		// the lazy working set needed.
		denseRows := c.jobs + c.machines
		if c.lp == "LP1" {
			pairs := 0
			for i := 0; i < in.M; i++ {
				for j := 0; j < in.N; j++ {
					if in.P[i][j] > 0 {
						pairs++
					}
				}
			}
			denseRows = pairs + c.jobs + c.machines + len(chains) + c.jobs
		}
		timed := func(dense bool) func() error {
			return func() error {
				_, err := solveLP(dense)
				return err
			}
		}
		var dense func() error
		if denseRows*(fs.Cols+denseRows) <= denseCellBudget {
			dense = timed(true)
		}
		row := LPBench{
			LP: c.lp, Family: c.family, Jobs: c.jobs, Machines: c.machines,
			Rows: fs.Rows, Cols: fs.Cols, Nnz: fs.Nnz, DenseRows: denseRows,
			Pivots: fs.Iterations, TStar: fs.T,
		}
		tm, err := sample(timedPairs, false, timed(false), dense)
		if err != nil {
			row.Error = err.Error()
		} else {
			row.SparseMS = tm.A.Median
			if dense != nil {
				row.DenseMS, row.Speedup = tm.B.Median, tm.Ratio
			}
		}
		out = append(out, row)
	}
	return out
}

// LPBenchTable renders already-measured LP benchmark rows as a table
// for the suu-bench -lp flag (measure once, render and serialize the
// same numbers).
func LPBenchTable(rows []LPBench) *Table {
	t := &Table{
		ID:         "LP",
		Title:      "LP layer in isolation: sparse revised simplex vs dense tableau",
		PaperBound: "engineering record, not a paper claim",
		Header:     []string{"LP", "family", "n", "m", "work rows", "dense rows", "cols", "nnz", "pivots", "sparse ms", "dense ms", "speedup", "T*"},
	}
	for _, b := range rows {
		if b.Error != "" {
			t.Rows = append(t.Rows, []string{b.LP, b.Family, d(b.Jobs), d(b.Machines), "—", "—", "—", "—", "—", "—", "—", "—", "error: " + b.Error})
			continue
		}
		denseMS, speedup := "skipped", "—"
		if b.DenseMS > 0 {
			denseMS, speedup = f2(b.DenseMS), f2(b.Speedup)+"x"
		}
		t.Rows = append(t.Rows, []string{
			b.LP, b.Family, d(b.Jobs), d(b.Machines), d(b.Rows), d(b.DenseRows), d(b.Cols), d(b.Nnz),
			d(b.Pivots), f2(b.SparseMS), denseMS, speedup, f2(b.TStar),
		})
	}
	t.Notes = "work rows = the lazy working set's final row count (window rows generated only as they bind); " +
		"dense rows = the full formulation the tableau oracle solves. Dense cells above the size budget are skipped."
	return t
}
