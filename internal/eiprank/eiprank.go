// Package eiprank ranks sampled EIPs: it gives each EIP a first-seen ID
// in one pass, then sorts only the distinct EIPs and turns IDs into
// ranks with one permutation. The profiler's EIP index and the raw-row
// indexer (rtree.IndexRows) both rank through it.
package eiprank

import (
	"math/bits"
	"slices"
)

// Table maps EIPs to first-seen IDs by open addressing: a
// multiplicative hash picks the home slot, collisions probe linearly, and
// the table doubles once it is half full. It does the work of a Go map
// from EIP to ID with one cache line per probe and no per-lookup call.
// The zero Table is not ready; call Init first.
type Table struct {
	slots    []slot
	shift    uint     // 64 - log2(len(slots))
	distinct []uint64 // the EIPs in first-seen order; an EIP's ID indexes it
}

// slot holds an EIP and its ID plus one; zero marks an empty slot, so
// EIP 0 needs no sentinel.
type slot struct {
	eip uint64
	id1 int32
}

// Init sizes the table for about n distinct EIPs at half load.
func (t *Table) Init(n int) {
	size := 16
	for size < 2*n {
		size *= 2
	}
	t.slots = make([]slot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// ID returns e's first-seen ID, assigning the next one if e is new.
func (t *Table) ID(e uint64) int32 {
	s := t.slot(e)
	if s.id1 != 0 {
		return s.id1 - 1
	}
	id := int32(len(t.distinct))
	*s = slot{eip: e, id1: id + 1}
	t.distinct = append(t.distinct, e)
	if 2*len(t.distinct) > len(t.slots) {
		t.grow()
	}
	return id
}

// slot returns e's slot, or the empty slot where e belongs.
func (t *Table) slot(e uint64) *slot {
	mask := len(t.slots) - 1
	for h := int((e * 0x9e3779b97f4a7c15) >> t.shift); ; h = (h + 1) & mask {
		if s := &t.slots[h]; s.id1 == 0 || s.eip == e {
			return s
		}
	}
}

// grow doubles the table and reinserts every EIP with its ID.
func (t *Table) grow() {
	t.Init(len(t.slots))
	for id, e := range t.distinct {
		*t.slot(e) = slot{eip: e, id1: int32(id) + 1}
	}
}

// Ranks returns the distinct EIPs in ascending order, copied out so a
// caller that keeps them does not keep the table's growth slack, and
// perm, which maps each first-seen ID to its EIP's position (rank) in
// eips.
func (t *Table) Ranks() (eips []uint64, perm []int32) {
	eips = slices.Clone(t.distinct)
	slices.Sort(eips)
	perm = make([]int32, len(eips))
	for rank, e := range eips {
		perm[t.ID(e)] = int32(rank)
	}
	return eips, perm
}
