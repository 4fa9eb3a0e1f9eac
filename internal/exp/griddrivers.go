package exp

import "strings"

// A GridDriver is an experiment whose whole Monte Carlo surface is a
// declared GridPlan: the plan enumerates every cell up front and the
// renderer is a pure function of the evaluated results. That split is
// what makes the table shardable — suu-bench can execute any cell
// range of the plan in any process, and merging the shards renders
// the exact sequential table (timing columns aside, which measure the
// producing process, not the experiment).
type GridDriver struct {
	// ID is the table id ("T13"); CLI lookup is case-insensitive.
	ID string
	// Plan declares the cell surface for a config (Quick changes
	// sizes, so the plan — and its fingerprint — depends on cfg).
	Plan func(Config) GridPlan
	// Render builds the table from results in Cells() order.
	Render func(Config, []GridResult) *Table
}

// GridDrivers lists the shardable tables. Drivers in all.go run these
// through runGridDriver, so the sequential path and the shard path
// share one plan and one renderer by construction. T10 is the solver
// sweep, A2 a declarative parameter ablation (per-spec overrides), A5
// an ablation with a custom cell evaluator — together they cover the
// three ways a table becomes shardable.
var GridDrivers = []GridDriver{
	{ID: "T13", Plan: t13Plan, Render: renderT13},
	{ID: "T14", Plan: t14Plan, Render: renderT14},
	{ID: "T15", Plan: t15Plan, Render: renderT15},
	{ID: "T10", Plan: t10Plan, Render: renderT10},
	{ID: "A2", Plan: a2Plan, Render: renderA2},
	{ID: "A5", Plan: a5Plan, Render: renderA5},
}

// GridDriverByID resolves a shardable table by id, case-insensitively.
func GridDriverByID(id string) (GridDriver, bool) {
	for _, g := range GridDrivers {
		if strings.EqualFold(g.ID, id) {
			return g, true
		}
	}
	return GridDriver{}, false
}

// GridDriverIDs lists the shardable table ids for CLI error messages.
func GridDriverIDs() string {
	ids := make([]string, len(GridDrivers))
	for i, g := range GridDrivers {
		ids[i] = g.ID
	}
	return strings.Join(ids, ", ")
}

// runGridDriver is the sequential path: evaluate the full plan on the
// in-process worker pool and render.
func runGridDriver(cfg Config, g GridDriver) *Table {
	return g.Render(cfg, RunPlan(cfg, g.Plan(cfg)))
}

// specSegments returns the length of each spec's cell block, for
// renderers that aggregate per spec (T13 computes a best-of per
// point).
func specSegments(p GridPlan) []int {
	out := make([]int, len(p.Specs))
	for i, s := range p.Specs {
		out[i] = s.NumCells()
	}
	return out
}
