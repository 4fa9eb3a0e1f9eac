package exp

import (
	"fmt"
	"runtime"
	"strings"

	"suu/internal/model"
	"suu/internal/opt"
	"suu/internal/sched"
	"suu/internal/sim"
)

// Config sizes the experiments.
type Config struct {
	// Quick shrinks sweeps and repetition counts (CI mode).
	Quick bool
	// Seed drives all randomness.
	Seed int64
	// Workers bounds the grid harness's parallelism: experiment cells
	// (and the drivers themselves under All) evaluate on a pool of
	// this many goroutines. 0 selects GOMAXPROCS; 1 is the fully
	// sequential harness. Tables are bit-identical at any setting.
	Workers int
}

// workers resolves the effective pool size.
func (c Config) workers() int {
	if c.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

// reps returns Monte Carlo repetitions for makespan estimates.
func (c Config) reps() int {
	if c.Quick {
		return 60
	}
	return 300
}

// trials returns how many random instances per sweep point.
func (c Config) trials() int {
	if c.Quick {
		return 3
	}
	return 8
}

// Table is one experiment's result in displayable form.
type Table struct {
	// ID is the experiment id from Drivers (T1..T3, T5..T11,
	// T13..T15, A2, A3, A5), or EXACT and LP for the exact-solver and
	// LP benchmark tables.
	ID string
	// Title describes the experiment.
	Title string
	// PaperBound states the theorem/bound being validated.
	PaperBound string
	Header     []string
	Rows       [][]string
	// Notes holds interpretation guidance appended below the table.
	Notes string
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "*Paper bound:* %s\n\n", t.PaperBound)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.Header)) + "\n")
	for _, r := range t.Rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	if t.Notes != "" {
		b.WriteString("\n" + t.Notes + "\n")
	}
	return b.String()
}

// estimate returns the mean simulated makespan of pol on in. It runs
// the repetitions sequentially: the grid harness already carries the
// parallelism at cell granularity, each cell owns its policy (so a
// stateful policy like the learner is race-free), and sim.Estimate is
// bit-identical to sim.EstimateParallel by the engine's contract.
// Stationary policies transparently run on the compiled adaptive
// engine; estimateInfo additionally reports which engine ran.
func estimate(in *model.Instance, pol sched.Policy, reps int, seed int64) float64 {
	mean, _ := estimateInfo(in, pol, reps, seed)
	return mean
}

// estimateInfo is estimate plus the engine record the grid rows
// persist.
func estimateInfo(in *model.Instance, pol sched.Policy, reps int, seed int64) (float64, sim.EngineUsed) {
	sum, incomplete, eng := sim.EstimateParallelInfo(in, pol, reps, 5_000_000, seed, 1)
	if incomplete > 0 {
		return -1, eng
	}
	return sum.Mean, eng
}

// exactOpt returns the exact optimum when the value iteration can
// reach the instance at experiment-loop cost. The precheck is in
// state-space terms, not raw (n, m): 12×4 independent (4096 states)
// and n≈20 chains/forests (a few thousand down-sets) are inside the
// frontier, while wide-antichain or many-machine instances whose
// assignment enumeration would dominate the sweep are rejected before
// any DP work happens.
func exactOpt(in *model.Instance) (float64, bool) {
	if in.N > 20 || in.M > 4 {
		return 0, false
	}
	ns, err := opt.StateCount(in)
	if err != nil || ns > 20_000 {
		return 0, false
	}
	_, v, _, err := opt.OptimalRegimenParallel(in, 0)
	if err != nil {
		return 0, false
	}
	return v, true
}

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
func d(x int) string      { return fmt.Sprintf("%d", x) }
