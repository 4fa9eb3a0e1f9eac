package dag

import (
	"fmt"
	"strings"
)

// DOTDecomposition renders the graph with its chain decomposition:
// blocks become clusters, chain edges are bold.
func (d *DAG) DOTDecomposition(name string, dc *Decomposition) string {
	inChain := make(map[[2]int]bool)
	for _, blk := range dc.Blocks {
		for _, chain := range blk.Chains {
			for k := 0; k+1 < len(chain); k++ {
				inChain[[2]int{chain[k], chain[k+1]}] = true
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n", name)
	for bi, blk := range dc.Blocks {
		fmt.Fprintf(&b, "  subgraph cluster_%d {\n    label=\"block %d\";\n", bi, bi)
		for _, chain := range blk.Chains {
			for _, v := range chain {
				fmt.Fprintf(&b, "    n%d [label=\"%d\"];\n", v, v)
			}
		}
		b.WriteString("  }\n")
	}
	for u := 0; u < d.n; u++ {
		for _, v := range d.succs[u] {
			if inChain[[2]int{u, v}] {
				fmt.Fprintf(&b, "  n%d -> n%d [penwidth=2];\n", u, v)
			} else {
				fmt.Fprintf(&b, "  n%d -> n%d [style=dashed];\n", u, v)
			}
		}
	}
	b.WriteString("}\n")
	return b.String()
}
