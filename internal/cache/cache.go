// Package cache implements the set-associative cache simulator behind the
// CPU model's memory hierarchy.
//
// The simulator is functional (hit/miss per access) rather than timed;
// latency assignment is the CPU model's job. Caches use true-LRU
// replacement within a set and are write-allocate, matching the behaviour
// whose aggregate effects the paper measures through stall-cycle counters.
package cache

import (
	"fmt"
	"math/bits"
)

// Config describes one cache level.
type Config struct {
	Name     string
	Size     int64 // total bytes; must be a positive multiple of LineSize*Assoc
	LineSize int   // bytes per line; must be a power of two
	Assoc    int   // ways per set
}

// Cache is a single set-associative cache with LRU replacement.
//
// Each set is stored as assoc packed 8-byte entries kept in recency order,
// most recent first: an LRU timestamp scheme orders a set's lines by last
// access, and this layout stores that order positionally instead. The
// entry word packs the line tag and the line's physical way slot (which
// way of the set it occupies):
//
//	top bits   tag (line >> setBits; geometry is validated so it fits)
//	low bits   physical slot (just enough bits for the associativity)
//
// Validity lives apart from the order, in one bitmask word per set (bit
// s = way slot s holds a live line). Every slot always appears exactly
// once in a set's entry list; invalidation just clears mask bits, so
// FlushFraction — which context-switch-heavy workloads hammer — is a
// single AND per set instead of any reshuffling. The classic fill rule,
// "replace the lowest-numbered invalid way, else the least recently used
// line", is a trailing-zeros scan of the inverted mask, else the last
// entry (a full mask means every entry is live, so the back one is the
// LRU line). A repeated-line access is a single compare against the
// front entry with no bookkeeping writes at all, and an 8-way set's
// order fits in one 64-byte line of simulator memory. Hits, misses, and
// victim selection are identical to the timestamp scheme.
type Cache struct {
	sets      int
	assoc     int
	lineBits  uint
	setBits   uint
	setMask   uint64
	slotBits  uint     // low bits of an entry holding the physical slot
	slotMask  uint64   // (1 << slotBits) - 1
	assocMask uint64   // bits 0..assoc-1: the full-set valid mask
	entries   []uint64 // sets*assoc packed entries, MRU-first per set
	valid     []uint64 // per-set bitmask of slots holding live lines

	// Partial flushes are applied lazily. A simulation run always calls
	// FlushFraction with one fraction (the configured context-switch
	// pollution), so each call clears the same per-set slot mask, and
	// clearing is idempotent: however many flushes a set missed, one
	// application catches it up. FlushFraction therefore just bumps an
	// epoch, and a set pays a single AND on its next access. A fraction
	// change (only seen in tests) syncs every set eagerly first.
	flushEpoch  uint64
	flushStride int      // stride flushMask is built for; 0 = none built
	flushMask   []uint64 // per-set slot mask one flush clears
	applied     []uint64 // per-set epoch of the last applied flush
}

// New builds a cache from cfg. It panics on an invalid geometry.
func New(cfg Config) *Cache {
	if cfg.LineSize <= 0 || cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineSize))
	}
	if cfg.Assoc <= 0 || cfg.Assoc > 64 {
		// The per-set valid bitmask is one word.
		panic(fmt.Sprintf("cache %s: associativity %d", cfg.Name, cfg.Assoc))
	}
	lines := cfg.Size / int64(cfg.LineSize)
	if lines <= 0 || lines%int64(cfg.Assoc) != 0 {
		panic(fmt.Sprintf("cache %s: size %d not a multiple of line*assoc", cfg.Name, cfg.Size))
	}
	sets := int(lines) / cfg.Assoc
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", cfg.Name, sets))
	}
	var lb uint
	for 1<<lb != cfg.LineSize {
		lb++
	}
	var sb uint
	for 1<<sb != sets {
		sb++
	}
	var slotBits uint = 1
	for 1<<slotBits < cfg.Assoc {
		slotBits++
	}
	if lb+sb < slotBits {
		// The packed entry stores tag<<slotBits, so the tag must fit in
		// 64-slotBits bits. Real configs are far above this bound.
		panic(fmt.Sprintf("cache %s: geometry too small for packed tags", cfg.Name))
	}
	assocMask := ^uint64(0)
	if cfg.Assoc < 64 {
		assocMask = uint64(1)<<cfg.Assoc - 1
	}
	c := &Cache{
		sets:      sets,
		assoc:     cfg.Assoc,
		lineBits:  lb,
		setBits:   sb,
		setMask:   uint64(sets - 1),
		slotBits:  slotBits,
		slotMask:  uint64(1)<<slotBits - 1,
		assocMask: assocMask,
		entries:   make([]uint64, sets*cfg.Assoc),
		valid:     make([]uint64, sets),
		flushMask: make([]uint64, sets),
		applied:   make([]uint64, sets),
	}
	for set := 0; set < sets; set++ {
		base := set * cfg.Assoc
		for w := 0; w < cfg.Assoc; w++ {
			c.entries[base+w] = uint64(w)
		}
	}
	return c
}

// Access looks up addr, installing the line on a miss, and returns true on
// a hit. Loads and stores are modelled alike: every miss allocates the
// line, and no write-back traffic is simulated.
// Access itself checks only the front entry (the hierarchy walk calls it
// for every reference, and repeated-line locality makes the front hit the
// common case); accessSlow carries the scan, victim selection, and
// reordering machinery. Access does not inline into callers: the
// compiler's inlining cost for it (go build -gcflags=-m=2) is above the
// budget of 80.
func (c *Cache) Access(addr uint64) bool {
	line := addr >> c.lineBits
	set := line & c.setMask
	// Fast path: no lazy flush pending on the set, and the most recent
	// line is the front entry — a hit there needs no bookkeeping writes.
	// A stale entry can carry a matching tag after its slot was
	// invalidated, so a hit also requires the slot's valid bit.
	if c.applied[set] == c.flushEpoch {
		e := c.entries[int(set)*c.assoc]
		if e&^c.slotMask == (line>>c.setBits)<<c.slotBits && c.valid[set]&(1<<(e&c.slotMask)) != 0 {
			return true
		}
	}
	return c.accessSlow(line, set)
}

func (c *Cache) accessSlow(line, set uint64) bool {
	want := (line >> c.setBits) << c.slotBits
	slotMask := c.slotMask
	base := int(set) * c.assoc
	ents := c.entries[base : base+c.assoc]
	if c.applied[set] != c.flushEpoch {
		c.valid[set] &^= c.flushMask[set]
		c.applied[set] = c.flushEpoch
	}
	vm := c.valid[set]

	if e := ents[0]; e&^slotMask == want && vm&(1<<(e&slotMask)) != 0 {
		return true
	}
	for i := 1; i < len(ents); i++ {
		if e := ents[i]; e&^slotMask == want && vm&(1<<(e&slotMask)) != 0 {
			// Move to front; the displaced entries keep their order.
			copy(ents[1:i+1], ents[:i])
			ents[0] = e
			return true
		}
	}
	var v int
	var slot uint64
	if free := ^vm & c.assocMask; free != 0 {
		// The lowest-numbered free way; its (stale) entry moves to the
		// front carrying the new tag.
		slot = uint64(bits.TrailingZeros64(free))
		for ents[v]&slotMask != slot {
			v++
		}
		c.valid[set] = vm | 1<<slot
	} else {
		// All ways live: the least recently used line at the back.
		v = len(ents) - 1
		slot = ents[v] & slotMask
	}
	copy(ents[1:v+1], ents[:v])
	ents[0] = want | slot
	return false
}

// Flush invalidates all lines (used to model the cache disturbance of a
// context switch at a coarser granularity, see FlushFraction).
func (c *Cache) Flush() {
	// Pending lazy flushes only clear bits, so zeroing every mask both
	// applies and subsumes them.
	clear(c.valid)
}

// FlushFraction invalidates roughly the given fraction of lines by
// invalidating every k-th way slot, deterministically. frac is clamped to
// [0, 1]. This models the partial cache pollution caused by a context
// switch without the cost of simulating the interloper's accesses.
func (c *Cache) FlushFraction(frac float64) {
	if frac <= 0 {
		return
	}
	if frac >= 1 {
		c.Flush()
		return
	}
	stride := int(1 / frac)
	if stride < 1 {
		stride = 1
	}
	if stride != c.flushStride {
		c.rebuildFlushMasks(stride)
	}
	c.flushEpoch++
}

// rebuildFlushMasks applies any pending lazy flushes at the old stride,
// then precomputes the per-set mask of every stride-th global way slot —
// the slots one FlushFraction call at this stride invalidates.
func (c *Cache) rebuildFlushMasks(stride int) {
	for set := 0; set < c.sets; set++ {
		if c.applied[set] != c.flushEpoch {
			c.valid[set] &^= c.flushMask[set]
			c.applied[set] = c.flushEpoch
		}
	}
	i := 0
	for set := 0; set < c.sets; set++ {
		base := set * c.assoc
		end := base + c.assoc
		var m uint64
		for ; i < end; i += stride {
			m |= 1 << uint(i-base)
		}
		c.flushMask[set] = m
	}
	c.flushStride = stride
}
