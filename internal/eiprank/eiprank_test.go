package eiprank

import (
	"math"
	"slices"
	"testing"
)

// TestTableRanks: IDs are first-seen order and stable across repeats,
// EIPs 0 and MaxUint64 are ordinary keys, the table grows past its
// initial size without losing an ID, and Ranks returns the sorted
// distinct EIPs with the permutation from ID to rank.
func TestTableRanks(t *testing.T) {
	seq := []uint64{math.MaxUint64, 7, 0, 7, math.MaxUint64, 0}
	for e := uint64(1000); e < 1100; e++ {
		seq = append(seq, e*0x9e3779b97f4a7c15, 7) // far more than Init's 1
	}
	var tab Table
	tab.Init(1)
	first := map[uint64]int32{}
	for _, e := range seq {
		id := tab.ID(e)
		want, seen := first[e]
		if !seen {
			want = int32(len(first))
			first[e] = want
		}
		if id != want {
			t.Fatalf("ID(%#x) = %d, want %d", e, id, want)
		}
	}
	eips, perm := tab.Ranks()
	if len(eips) != len(first) || !slices.IsSorted(eips) {
		t.Fatalf("Ranks returned %d EIPs (sorted %v), want %d sorted", len(eips), slices.IsSorted(eips), len(first))
	}
	for e, id := range first {
		if eips[perm[id]] != e {
			t.Fatalf("perm maps %#x's ID %d to rank %d, which holds %#x", e, id, perm[id], eips[perm[id]])
		}
	}
}
