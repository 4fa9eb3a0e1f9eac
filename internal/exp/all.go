package exp

import "strings"

// A Driver is one experiment. Most drivers are a single function
// (Run). A grid table instead declares its whole Monte Carlo surface
// as a GridPlan (Plan) and builds the table from the evaluated rows
// in Cells() order (Render). That split is what makes the table
// shardable: suu-bench can execute any cell range of the plan in any
// process, and merging the shards renders the exact sequential table
// (timing columns aside, which measure the producing process, not the
// experiment). A driver sets either Run, or both Plan and Render.
type Driver struct {
	// ID is the table id ("T13"); lookup is case-insensitive.
	ID  string
	Run func(Config) *Table
	// Plan declares the cell surface for a config (Quick changes
	// sizes, so the plan — and its fingerprint — depends on cfg).
	Plan   func(Config) GridPlan
	Render func(Config, []ShardCell) *Table
}

// Table runs the experiment in this process: Run, or the full plan
// on the in-process worker pool and then Render.
func (d Driver) Table(cfg Config) *Table {
	if d.Run != nil {
		return d.Run(cfg)
	}
	return d.Render(cfg, RunPlan(cfg, d.Plan(cfg)))
}

// Drivers lists every experiment in presentation order. The grid
// tables cover the three ways a table becomes shardable: T10, T13
// and T14 are solver sweeps, A2 a declarative parameter ablation
// (per-spec overrides), and T15 and A5 run custom cell evaluators.
var Drivers = []Driver{
	{ID: "T1", Run: T1},
	{ID: "T2", Run: T2},
	{ID: "T3", Run: T3},
	{ID: "T5", Run: T5},
	{ID: "T6", Run: T6},
	{ID: "T7", Run: T7},
	{ID: "T8", Run: T8},
	{ID: "T9", Run: T9},
	{ID: "T10", Plan: t10Plan, Render: renderT10},
	{ID: "T11", Run: T11},
	{ID: "T13", Plan: t13Plan, Render: renderT13},
	{ID: "T14", Plan: t14Plan, Render: renderT14},
	{ID: "T15", Plan: t15Plan, Render: renderT15},
	{ID: "A2", Plan: a2Plan, Render: renderA2},
	{ID: "A3", Run: A3},
	{ID: "A5", Plan: a5Plan, Render: renderA5},
}

// DriverByID resolves an experiment by id, case-insensitively.
func DriverByID(id string) (Driver, bool) {
	for _, d := range Drivers {
		if strings.EqualFold(d.ID, id) {
			return d, true
		}
	}
	return Driver{}, false
}

// All runs every experiment and returns the tables in presentation
// order. Drivers run one after another — the parallelism lives at
// cell granularity inside each driver — so only one worker pool is
// alive at a time.
func All(cfg Config) []*Table {
	var out []*Table
	for _, drv := range Drivers {
		out = append(out, drv.Table(cfg))
	}
	return out
}
