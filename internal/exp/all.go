package exp

// Drivers maps experiment ids to their drivers, in presentation order.
var Drivers = []struct {
	ID  string
	Run func(Config) *Table
}{
	{"T1", T1},
	{"T2", T2},
	{"T3", T3},
	{"T5", T5},
	{"T6", T6},
	{"T7", T7},
	{"T8", T8},
	{"T9", T9},
	{"T10", T10},
	{"T11", T11},
	{"T13", T13},
	{"T14", T14},
	{"T15", T15},
	{"A2", A2},
	{"A3", A3},
	{"A5", A5},
}

// All runs every experiment and returns the tables in presentation
// order. Drivers run one after another — the parallelism lives at
// cell granularity inside each driver — so only one worker pool is
// alive at a time.
func All(cfg Config) []*Table {
	var out []*Table
	for _, drv := range Drivers {
		out = append(out, drv.Run(cfg))
	}
	return out
}
