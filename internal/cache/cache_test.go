package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// Contains reports whether addr's line is currently cached, without
// touching LRU state. Only tests probe residency; the simulator learns
// it from Access.
func (c *Cache) Contains(addr uint64) bool {
	line := addr >> c.lineBits
	set := int(line & c.setMask)
	want := (line >> c.setBits) << c.slotBits
	if c.applied[set] != c.flushEpoch {
		c.valid[set] &^= c.flushMask[set]
		c.applied[set] = c.flushEpoch
	}
	vm := c.valid[set]
	base := set * c.assoc
	for _, e := range c.entries[base : base+c.assoc] {
		if e&^c.slotMask == want && vm&(1<<(e&c.slotMask)) != 0 {
			return true
		}
	}
	return false
}

func small() *Cache {
	// 4 sets x 2 ways x 64B lines = 512B.
	return New(Config{Name: "t", Size: 512, LineSize: 64, Assoc: 2})
}

func TestColdMissThenHit(t *testing.T) {
	c := small()
	if c.Access(0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x1030) {
		t.Fatal("same-line access missed")
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 2-way: three conflicting lines force an eviction
	// Lines mapping to the same set differ by sets*lineSize = 4*64 = 256.
	a, b, d := uint64(0x0), uint64(0x100), uint64(0x200)
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now MRU, b is LRU
	c.Access(d) // evicts b
	if !c.Contains(a) {
		t.Fatal("MRU line evicted")
	}
	if c.Contains(b) {
		t.Fatal("LRU line not evicted")
	}
	if !c.Contains(d) {
		t.Fatal("new line not installed")
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := small()
	c.Access(0x0)
	c.Access(0x100)
	// Probing must not refresh 0x0's LRU position.
	for i := 0; i < 10; i++ {
		c.Contains(0x0)
	}
	c.Access(0x200) // should evict 0x0 (older than 0x100)
	if c.Contains(0x0) {
		t.Fatal("Contains refreshed LRU state")
	}
}

func TestSetIndexing(t *testing.T) {
	c := small()
	// Addresses in different sets must not conflict.
	for i := uint64(0); i < 4; i++ {
		c.Access(i * 64)
	}
	for i := uint64(0); i < 4; i++ {
		if !c.Contains(i * 64) {
			t.Fatalf("line in set %d evicted despite no conflict", i)
		}
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	c := New(Config{Name: "t", Size: 8192, LineSize: 64, Assoc: 4})
	// Touch 8KB working set twice; second pass must be all hits.
	var hits [2]int
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < 8192; a += 64 {
			if c.Access(a) {
				hits[pass]++
			}
		}
	}
	if hits[0] != 0 {
		t.Fatalf("cold pass hits = %d, want 0 (128 cold misses)", hits[0])
	}
	if hits[1] != 128 {
		t.Fatalf("warm pass hits = %d, want 128", hits[1])
	}
}

func TestThrashingWorkingSet(t *testing.T) {
	c := New(Config{Name: "t", Size: 4096, LineSize: 64, Assoc: 1})
	// Working set 2x the cache with direct mapping and a stride that maps
	// pairs onto the same sets: every access misses after warmup.
	hits := 0
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < 8192; a += 64 {
			if c.Access(a) {
				hits++
			}
		}
	}
	if hits != 0 {
		t.Fatalf("thrashing pattern produced %d hits", hits)
	}
}

func TestFlush(t *testing.T) {
	c := small()
	c.Access(0x40)
	c.Flush()
	if c.Contains(0x40) {
		t.Fatal("line survived flush")
	}
}

func TestFlushFraction(t *testing.T) {
	c := New(Config{Name: "t", Size: 65536, LineSize: 64, Assoc: 4})
	for a := uint64(0); a < 65536; a += 64 {
		c.Access(a)
	}
	c.FlushFraction(0.25)
	live := 0
	for a := uint64(0); a < 65536; a += 64 {
		if c.Contains(a) {
			live++
		}
	}
	if live < 600 || live > 900 { // 1024 lines, ~25% flushed
		t.Fatalf("after 25%% flush, %d/1024 lines live", live)
	}
	c.FlushFraction(0) // no-op
	c.FlushFraction(1.0)
	for a := uint64(0); a < 65536; a += 64 {
		if c.Contains(a) {
			t.Fatal("line survived full FlushFraction")
		}
	}
}

func TestInvalidGeometriesPanic(t *testing.T) {
	bad := []Config{
		{Name: "line0", Size: 512, LineSize: 0, Assoc: 2},
		{Name: "line-npot", Size: 512, LineSize: 48, Assoc: 2},
		{Name: "assoc0", Size: 512, LineSize: 64, Assoc: 0},
		{Name: "size-odd", Size: 500, LineSize: 64, Assoc: 2},
		{Name: "sets-npot", Size: 64 * 2 * 3, LineSize: 64, Assoc: 2},
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", cfg.Name)
				}
			}()
			New(cfg)
		}()
	}
}

func TestHitConsistencyProperty(t *testing.T) {
	// Property: immediately re-accessing any address is always a hit.
	f := func(seed uint64) bool {
		c := New(Config{Name: "p", Size: 2048, LineSize: 32, Assoc: 2})
		r := xrand.New(seed)
		for i := 0; i < 500; i++ {
			a := r.Uint64() % (1 << 20)
			c.Access(a)
			if !c.Access(a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMissRate: one cold miss then three hits on the same line are a
// quarter of four accesses missing.
func TestMissRate(t *testing.T) {
	c := New(Config{Name: "t", Size: 4096, LineSize: 64, Assoc: 2})
	misses := 0
	for i := 0; i < 4; i++ {
		if !c.Access(0x1000) {
			misses++
		}
	}
	if misses != 1 {
		t.Fatalf("%d misses in 4 accesses, want 1", misses)
	}
}

func BenchmarkAccess(b *testing.B) {
	c := New(Config{Name: "b", Size: 3 << 20, LineSize: 128, Assoc: 12})
	r := xrand.New(1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = r.Uint64() % (64 << 20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&4095])
	}
}
