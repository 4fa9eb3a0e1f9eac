package exp

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// ciShardLoop matches a shell loop over table ids in the CI workflow,
// as the grid-shards and grid-merge jobs write it.
var ciShardLoop = regexp.MustCompile(`for t in ([^;\n]*); do`)

// TestCIShardsEveryGridDriver keeps CI's shard → merge matrix and the
// driver list from drifting apart: every `for t in …; do` loop of the
// workflow must list exactly the drivers that declare a plan, so a new
// grid table cannot go unsharded and a deleted one cannot linger. It
// also checks each driver's shape — Run, or Plan and Render, never
// both — and that ids are unique ignoring case, since lookup ignores
// case.
func TestCIShardsEveryGridDriver(t *testing.T) {
	var grid []string
	seen := map[string]bool{}
	for _, d := range Drivers {
		runs := d.Run != nil && d.Plan == nil && d.Render == nil
		renders := d.Run == nil && d.Plan != nil && d.Render != nil
		if !runs && !renders {
			t.Errorf("driver %s: want Run, or both Plan and Render (Run set %v, Plan set %v, Render set %v)",
				d.ID, d.Run != nil, d.Plan != nil, d.Render != nil)
		}
		key := strings.ToLower(d.ID)
		if seen[key] {
			t.Errorf("driver id %s is registered twice (ignoring case)", d.ID)
		}
		seen[key] = true
		if d.Plan != nil {
			grid = append(grid, d.ID)
		}
	}
	slices.Sort(grid)

	raw, err := os.ReadFile("../../.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	loops := ciShardLoop.FindAllStringSubmatch(string(raw), -1)
	if len(loops) == 0 {
		t.Fatal("ci.yml has no `for t in …; do` shard loop")
	}
	for _, m := range loops {
		ids := strings.Fields(m[1])
		slices.Sort(ids)
		if ids = slices.Compact(ids); !slices.Equal(ids, grid) {
			t.Errorf("ci.yml loop %q lists %v; the drivers with a plan are %v", m[0], ids, grid)
		}
	}
}
