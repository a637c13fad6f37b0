package cache

import (
	"fmt"
	"testing"

	"repro/internal/xrand"
)

// refCache is the timestamp-LRU reference of Cache: every set has assoc
// physical slots, each with a tag, a valid flag and the time of its last
// access. A miss fills the lowest-numbered invalid slot, else evicts the
// slot accessed least recently. FlushFraction invalidates every global
// slot (set*assoc + slot) whose index is 0 mod the stride. It keeps no
// recency order and no lazy flush state, so it shares none of Cache's
// packed-entry machinery.
type refCache struct {
	sets, assoc int
	lineSize    uint64
	tags        []uint64
	valid       []bool
	stamp       []uint64
	now         uint64
}

func newRefCache(cfg Config) *refCache {
	n := int(cfg.Size) / cfg.LineSize
	return &refCache{
		sets:     n / cfg.Assoc,
		assoc:    cfg.Assoc,
		lineSize: uint64(cfg.LineSize),
		tags:     make([]uint64, n),
		valid:    make([]bool, n),
		stamp:    make([]uint64, n),
	}
}

// slots returns the global slot range of addr's set and addr's tag.
func (r *refCache) slots(addr uint64) (base int, tag uint64) {
	line := addr / r.lineSize
	return int(line%uint64(r.sets)) * r.assoc, line / uint64(r.sets)
}

func (r *refCache) contains(addr uint64) bool {
	base, tag := r.slots(addr)
	for s := base; s < base+r.assoc; s++ {
		if r.valid[s] && r.tags[s] == tag {
			return true
		}
	}
	return false
}

func (r *refCache) access(addr uint64) bool {
	base, tag := r.slots(addr)
	r.now++
	victim := -1
	for s := base; s < base+r.assoc; s++ {
		if r.valid[s] && r.tags[s] == tag {
			r.stamp[s] = r.now
			return true
		}
		if !r.valid[s] && victim < 0 {
			victim = s
		}
	}
	if victim < 0 {
		victim = base
		for s := base + 1; s < base+r.assoc; s++ {
			if r.stamp[s] < r.stamp[victim] {
				victim = s
			}
		}
	}
	r.tags[victim], r.valid[victim], r.stamp[victim] = tag, true, r.now
	return false
}

func (r *refCache) flush() { clear(r.valid) }

func (r *refCache) flushFraction(frac float64) {
	switch {
	case frac <= 0:
	case frac >= 1:
		r.flush()
	default:
		stride := max(int(1/frac), 1)
		for s := 0; s < len(r.valid); s += stride {
			r.valid[s] = false
		}
	}
}

// TestAccessMatchesReference drives Cache and refCache with the same
// random streams and requires the same hit or miss on every access and
// the same resident lines at every checkpoint, so hits, misses and victim
// choice are pinned in the cache itself. Streams mix repeats of recent
// addresses, sequential runs, conflicting lines in a few hot sets (each
// with three times as many tags as ways) and uniform addresses, with
// FlushFraction at changing fractions and Flush interleaved.
func TestAccessMatchesReference(t *testing.T) {
	geometries := []Config{
		{Name: "L1", Size: 16 << 10, LineSize: 64, Assoc: 4},
		{Name: "L2", Size: 256 << 10, LineSize: 128, Assoc: 8},
		{Name: "L3", Size: 3 << 20, LineSize: 128, Assoc: 12},
		{Name: "L2-64B", Size: 512 << 10, LineSize: 64, Assoc: 8},
		{Name: "direct", Size: 8 << 10, LineSize: 64, Assoc: 1},
	}
	seeds, accesses := 6, 100_000
	if testing.Short() {
		seeds, accesses = 2, 30_000
	}
	fracs := []float64{0.5, 0.3, 0.25, 0.125, 0.05, 0, 1}
	for _, cfg := range geometries {
		for seed := 1; seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.Name, seed), func(t *testing.T) {
				c, ref := New(cfg), newRefCache(cfg)
				r := xrand.New(uint64(seed))
				line := uint64(cfg.LineSize)
				sets := uint64(ref.sets)
				hot := make([]uint64, 8)
				for i := range hot {
					hot[i] = r.Uint64() % sets
				}
				var pool []uint64 // every hot-set line, for residency checks
				for _, set := range hot {
					for tag := uint64(0); tag < uint64(3*cfg.Assoc); tag++ {
						pool = append(pool, (tag*sets+set)*line)
					}
				}
				var recent [16]uint64
				prev := uint64(0)
				for i := 0; i < accesses; i++ {
					switch {
					case r.Intn(2000) == 0:
						f := fracs[r.Intn(len(fracs))]
						c.FlushFraction(f)
						ref.flushFraction(f)
					case r.Intn(20000) == 0:
						c.Flush()
						ref.flush()
					}
					var a uint64
					switch p := r.Float64(); {
					case p < 0.3:
						a = recent[r.Intn(len(recent))]
					case p < 0.5:
						a = prev + line
					case p < 0.9:
						a = pool[r.Intn(len(pool))] + uint64(r.Intn(cfg.LineSize))
					default:
						a = r.Uint64() % (1 << 32)
					}
					recent[i%len(recent)], prev = a, a
					if got, want := c.Access(a), ref.access(a); got != want {
						t.Fatalf("access %d to %#x: hit = %t, reference hit = %t", i, a, got, want)
					}
					if i%10_000 == 9_999 || i == accesses-1 {
						for _, a := range append(pool, recent[:]...) {
							if got, want := c.Contains(a), ref.contains(a); got != want {
								t.Fatalf("after access %d: %#x resident = %t, reference = %t", i, a, got, want)
							}
						}
					}
				}
			})
		}
	}
}
