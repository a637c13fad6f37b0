package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func small() *Cache {
	// 4 sets x 2 ways x 64B lines = 512B.
	return New(Config{Name: "t", Size: 512, LineSize: 64, Assoc: 2})
}

func TestColdMissThenHit(t *testing.T) {
	c := small()
	if c.Access(0x1000, false) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000, false) {
		t.Fatal("second access missed")
	}
	if !c.Access(0x1030, false) {
		t.Fatal("same-line access missed")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small() // 2-way: three conflicting lines force an eviction
	// Lines mapping to the same set differ by sets*lineSize = 4*64 = 256.
	a, b, d := uint64(0x0), uint64(0x100), uint64(0x200)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU, b is LRU
	c.Access(d, false) // evicts b
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
	c.Access(0x0, false)
	c.Access(0x100, false)
	// Probing must not refresh 0x0's LRU position.
	for i := 0; i < 10; i++ {
		c.Contains(0x0)
	}
	c.Access(0x200, false) // should evict 0x0 (older than 0x100)
	if c.Contains(0x0) {
		t.Fatal("Contains refreshed LRU state")
	}
	st := c.Stats()
	if st.Accesses() != 3 {
		t.Fatalf("Contains counted as access: %+v", st)
	}
}

func TestSetIndexing(t *testing.T) {
	c := small()
	// Addresses in different sets must not conflict.
	for i := uint64(0); i < 4; i++ {
		c.Access(i*64, false)
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
	for pass := 0; pass < 2; pass++ {
		for a := uint64(0); a < 8192; a += 64 {
			c.Access(a, false)
		}
	}
	s := c.Stats()
	if s.Misses != 128 {
		t.Fatalf("misses = %d, want 128 cold only", s.Misses)
	}
	if s.Hits != 128 {
		t.Fatalf("hits = %d, want 128", s.Hits)
	}
}

func TestThrashingWorkingSet(t *testing.T) {
	c := New(Config{Name: "t", Size: 4096, LineSize: 64, Assoc: 1})
	// Working set 2x the cache with direct mapping and a stride that maps
	// pairs onto the same sets: every access misses after warmup.
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < 8192; a += 64 {
			c.Access(a, false)
		}
	}
	if c.Stats().Hits != 0 {
		t.Fatalf("thrashing pattern produced %d hits", c.Stats().Hits)
	}
}

func TestFlush(t *testing.T) {
	c := small()
	c.Access(0x40, false)
	c.Flush()
	if c.Contains(0x40) {
		t.Fatal("line survived flush")
	}
}

func TestFlushFraction(t *testing.T) {
	c := New(Config{Name: "t", Size: 65536, LineSize: 64, Assoc: 4})
	for a := uint64(0); a < 65536; a += 64 {
		c.Access(a, false)
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
			c.Access(a, r.Bool(0.3))
			if !c.Access(a, false) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyInclusionOfLatencyOrder(t *testing.T) {
	h := &Hierarchy{
		L1I: New(Config{Name: "l1i", Size: 1024, LineSize: 64, Assoc: 2}),
		L1D: New(Config{Name: "l1d", Size: 1024, LineSize: 64, Assoc: 2}),
		L2:  New(Config{Name: "l2", Size: 8192, LineSize: 64, Assoc: 4}),
		L3:  New(Config{Name: "l3", Size: 65536, LineSize: 64, Assoc: 8}),
	}
	if lvl := h.Data(0x5000, false); lvl != LevelMemory {
		t.Fatalf("cold data access serviced by %v", lvl)
	}
	if lvl := h.Data(0x5000, false); lvl != LevelL1 {
		t.Fatalf("warm data access serviced by %v", lvl)
	}
	// Evict from tiny L1 but not from L2: stream enough lines through L1.
	for a := uint64(0x10000); a < 0x10000+2048; a += 64 {
		h.Data(a, false)
	}
	if lvl := h.Data(0x5000, false); lvl != LevelL2 && lvl != LevelL3 {
		t.Fatalf("expected L2/L3 hit after L1 eviction, got %v", lvl)
	}
}

func TestHierarchyNoL3(t *testing.T) {
	h := &Hierarchy{
		L1I: New(Config{Name: "l1i", Size: 1024, LineSize: 64, Assoc: 2}),
		L1D: New(Config{Name: "l1d", Size: 1024, LineSize: 64, Assoc: 2}),
		L2:  New(Config{Name: "l2", Size: 4096, LineSize: 64, Assoc: 4}),
	}
	if lvl := h.Data(0x9000, false); lvl != LevelMemory {
		t.Fatalf("no-L3 cold access = %v, want memory", lvl)
	}
	if lvl := h.Data(0x9000, false); lvl != LevelL1 {
		t.Fatalf("no-L3 warm access = %v, want L1", lvl)
	}
}

func TestLevelString(t *testing.T) {
	want := map[Level]string{LevelL1: "L1", LevelL2: "L2", LevelL3: "L3", LevelMemory: "memory", Level(9): "Level(9)"}
	for l, s := range want {
		if l.String() != s {
			t.Errorf("Level(%d).String() = %q, want %q", int(l), l.String(), s)
		}
	}
}

// TestMissRate: one cold miss then three hits on the same line count as
// a quarter of four accesses missing.
func TestMissRate(t *testing.T) {
	c := New(Config{Name: "t", Size: 4096, LineSize: 64, Assoc: 2})
	if c.Stats() != (Stats{}) {
		t.Fatalf("fresh cache stats %+v", c.Stats())
	}
	for i := 0; i < 4; i++ {
		c.Access(0x1000, false)
	}
	if s := c.Stats(); s.Accesses() != 4 || s.Misses != 1 {
		t.Fatalf("stats %+v, want 1 miss in 4 accesses", s)
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
		c.Access(addrs[i&4095], false)
	}
}
