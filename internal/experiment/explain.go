package experiment

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/rtree"
)

// RegionImportance aggregates regression-tree feature importances from
// individual EIPs up to named code regions: which *code* the tree found
// predictive of CPI.
type RegionImportance struct {
	Region string
	Share  float64
	Splits int
}

// Explanation is the interpretable view of one workload's tree: the
// in-sample tree over the steady-state EIPVs and the code regions the
// splits live in.
type Explanation struct {
	Name       string
	Tree       *rtree.Tree
	InSampleRE float64
	Regions    []RegionImportance
}

// Explain builds the full (in-sample) tree for an analyzed workload and
// aggregates its splits by code region. The cross-validated Result.CV
// remains the honest predictability number; the explanation shows *where*
// whatever predictability exists comes from.
func Explain(res *Result) Explanation {
	tree := res.Matrix.Build(rtree.DefaultOptions())
	ex := Explanation{
		Name:       res.Name,
		Tree:       tree,
		InSampleRE: tree.InSampleRE(tree.Leaves()),
	}
	byRegion := map[string]*RegionImportance{}
	for _, imp := range tree.Importances() {
		region := res.LabelEIP(imp.EIP)
		// Strip the +offset so importances aggregate per region.
		for i := 0; i < len(region); i++ {
			if region[i] == '+' {
				region = region[:i]
				break
			}
		}
		ri := byRegion[region]
		if ri == nil {
			ri = &RegionImportance{Region: region}
			byRegion[region] = ri
		}
		ri.Share += imp.Share
		ri.Splits += imp.Splits
	}
	for _, ri := range byRegion {
		ex.Regions = append(ex.Regions, *ri)
	}
	sort.Slice(ex.Regions, func(i, j int) bool {
		if ex.Regions[i].Share != ex.Regions[j].Share {
			return ex.Regions[i].Share > ex.Regions[j].Share
		}
		return ex.Regions[i].Region < ex.Regions[j].Region
	})
	return ex
}

// RenderExplanation writes the explanation: region importances, then the
// tree itself with symbolized split EIPs.
func RenderExplanation(w io.Writer, res *Result, ex Explanation) {
	fmt.Fprintf(w, "%s: %d chambers, in-sample RE %.3f (cross-validated RE_kopt %.3f)\n",
		ex.Name, ex.Tree.Leaves(), ex.InSampleRE, res.CV.REOpt)
	if len(ex.Regions) == 0 {
		fmt.Fprintln(w, "the tree never split: CPI is constant or unexplainable from EIPs")
		return
	}
	fmt.Fprintln(w, "variance reduction by code region:")
	for _, ri := range ex.Regions {
		fmt.Fprintf(w, "  %-24s %5.1f%%  (%d splits)\n", ri.Region, ri.Share*100, ri.Splits)
	}
	fmt.Fprintln(w, "tree:")
	ex.Tree.Render(w, res.LabelEIP)
}
