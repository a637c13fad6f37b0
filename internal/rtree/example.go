package rtree

// This file encodes the paper's worked example (Table 1 / Figure 1): eight
// EIPVs over three unique EIPs, whose optimal 4-chamber regression tree
// has root (EIP0, 20), a left child splitting on (EIP2, 60) and a right
// child splitting on (EIP1, 0).

// ExampleEIPV is one row of Table 1: an interval's CPI and its sample
// counts of EIP0, EIP1 and EIP2, in that order. EIPi is the EIP value i.
type ExampleEIPV struct {
	CPI    float64
	Counts [3]int64
}

// ExampleTable1 returns the paper's Table 1, EIPV0..EIPV7 in order. The
// published table's per-EIP counts are partially illegible in the
// available text, so the counts below are reconstructed to satisfy every
// constraint the paper states explicitly: the CPI column; the root split
// (EIP0, 20) sending EIPV2/4/5/6 left and EIPV0/1/3/7 right; the left
// subtree splitting on (EIP2, 60) into {EIPV4 (2.0), EIPV5 (2.1)} vs
// {EIPV2 (2.6), EIPV6 (2.5)}; and the right subtree splitting on (EIP1, 0)
// into {EIPV0 (1.0), EIPV1 (1.1)} vs {EIPV3 (0.6), EIPV7 (0.7)} (Figure 1).
func ExampleTable1() []ExampleEIPV {
	return []ExampleEIPV{
		{1.0, [3]int64{60, 0, 40}},  // EIPV0: right, EIP1==0
		{1.1, [3]int64{70, 0, 8}},   // EIPV1: right, EIP1==0
		{2.6, [3]int64{10, 20, 70}}, // EIPV2: left, EIP2>60
		{0.6, [3]int64{65, 10, 10}}, // EIPV3: right, EIP1>0
		{2.0, [3]int64{12, 18, 50}}, // EIPV4: left, EIP2<=60
		{2.1, [3]int64{20, 30, 60}}, // EIPV5: left, EIP2<=60
		{2.5, [3]int64{15, 15, 80}}, // EIPV6: left, EIP2>60
		{0.7, [3]int64{90, 5, 5}},   // EIPV7: right, EIP1>0
	}
}

// ExampleMatrix indexes ExampleTable1 through IndexRows, row i being
// EIPVi. A zero count is left out of its row: the EIP was not sampled.
func ExampleMatrix() *Matrix {
	table := ExampleTable1()
	ys := make([]float64, len(table))
	for i, r := range table {
		ys[i] = r.CPI
	}
	m, err := IndexRows(ys, func(i int) (eips []uint64, counts []int64) {
		for e, c := range table[i].Counts {
			if c > 0 {
				eips, counts = append(eips, uint64(e)), append(counts, c)
			}
		}
		return eips, counts
	})
	if err != nil {
		panic(err) // the table above is a valid input
	}
	return m
}
