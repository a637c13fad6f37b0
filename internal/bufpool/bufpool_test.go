package bufpool

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func TestMissThenHit(t *testing.T) {
	p := New(4)
	if p.Access(1) {
		t.Fatal("cold access hit")
	}
	if !p.Access(1) {
		t.Fatal("resident page missed")
	}
	s := p.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	p := New(2)
	p.Access(1)
	p.Access(2)
	p.Access(1) // 2 is now LRU
	p.Access(3) // evicts 2
	if !p.Contains(1) || p.Contains(2) || !p.Contains(3) {
		t.Fatalf("LRU order wrong: 1=%v 2=%v 3=%v", p.Contains(1), p.Contains(2), p.Contains(3))
	}
	if p.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", p.Stats().Evictions)
	}
}

func TestLenNeverExceedsCapacity(t *testing.T) {
	f := func(seed uint64) bool {
		p := New(16)
		r := xrand.New(seed)
		for i := 0; i < 500; i++ {
			p.Access(PageID(r.Intn(100)))
			if p.Len() > p.capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWorkingSetFitsPerfectHitRate(t *testing.T) {
	p := New(100)
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 100; i++ {
			p.Access(PageID(i))
		}
	}
	s := p.Stats()
	if s.Misses != 100 {
		t.Fatalf("misses = %d, want 100 cold only", s.Misses)
	}
	if s.Hits != 200 {
		t.Fatalf("hits = %d, want 200 (every warm access)", s.Hits)
	}
}

func TestScanLargerThanPoolThrashes(t *testing.T) {
	p := New(50)
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 100; i++ {
			p.Access(PageID(i))
		}
	}
	if p.Stats().Hits != 0 {
		t.Fatalf("sequential over-capacity scan got %d hits under LRU", p.Stats().Hits)
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	p := New(2)
	p.Access(1)
	p.Access(2)
	p.Contains(1) // must not refresh
	p.Access(3)   // evicts 1 (true LRU)
	if p.Contains(1) {
		t.Fatal("Contains refreshed LRU position")
	}
	if s := p.Stats(); s.Hits+s.Misses != 3 {
		t.Fatal("Contains affected stats")
	}
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

// TestHitRateEmpty: a pool with no accesses has counted nothing.
func TestHitRateEmpty(t *testing.T) {
	if s := New(4).Stats(); s != (Stats{}) {
		t.Fatalf("fresh pool stats %+v", s)
	}
}
