package rtree

import (
	"fmt"
	"io"
	"sort"
)

// Importance is one feature's contribution to a tree's variance reduction.
type Importance struct {
	EIP uint64
	// Gain is the summed sum-of-squares reduction of every split on this
	// feature.
	Gain float64
	// Share is Gain normalized by the total reduction (sums to 1 over all
	// returned entries).
	Share float64
	// Splits is how many tree nodes split on the feature.
	Splits int
}

// Importances returns the tree's features ranked by total variance
// reduction — which EIPs the tree found predictive of CPI. An empty slice
// means the tree never split (constant or unexplainable CPI).
func (t *Tree) Importances() []Importance {
	byEIP := map[uint64]*Importance{}
	var total float64
	for _, n := range t.splits {
		sp := n.split
		imp := byEIP[sp.EIP]
		if imp == nil {
			imp = &Importance{EIP: sp.EIP}
			byEIP[sp.EIP] = imp
		}
		imp.Gain += sp.Gain
		imp.Splits++
		total += sp.Gain
	}
	out := make([]Importance, 0, len(byEIP))
	for _, imp := range byEIP {
		if total > 0 {
			imp.Share = imp.Gain / total
		}
		out = append(out, *imp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Gain != out[j].Gain {
			return out[i].Gain > out[j].Gain
		}
		return out[i].EIP < out[j].EIP
	})
	return out
}

// Render writes the tree's structure as indented text: one line per node,
// leaves with their chamber statistics, in the left-to-right order a
// prediction would traverse.
func (t *Tree) Render(w io.Writer, label func(eip uint64) string) {
	if label == nil {
		label = func(e uint64) string { return fmt.Sprintf("EIP %#x", e) }
	}
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		for i := 0; i < depth; i++ {
			fmt.Fprint(w, "  ")
		}
		if n.split == nil {
			fmt.Fprintf(w, "chamber: %d EIPVs, mean CPI %.3f\n", n.count(), n.mean())
			return
		}
		fmt.Fprintf(w, "%s <= %d? (split #%d, gain %.3f)\n",
			label(n.split.EIP), n.split.N, n.split.Order, n.split.Gain)
		walk(n.left, depth+1)
		walk(n.right, depth+1)
	}
	walk(t.root, 0)
}
