package bufpool

import (
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

// Len returns the number of resident pages.
func (p *Pool) Len() int { return p.lru.Len() }

// Contains reports residency without touching LRU order. Only tests probe
// residency; the database model learns it from Access.
func (p *Pool) Contains(page PageID) bool {
	_, ok := p.index[page]
	return ok
}

func TestMissThenHit(t *testing.T) {
	p := New(4)
	if p.Access(1) {
		t.Fatal("cold access hit")
	}
	if !p.Access(1) {
		t.Fatal("resident page missed")
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
	if p.Len() != 2 {
		t.Fatalf("Len = %d after one eviction from a full pool of 2", p.Len())
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
	var hits [3]int
	for pass := range hits {
		for i := 0; i < 100; i++ {
			if p.Access(PageID(i)) {
				hits[pass]++
			}
		}
	}
	if hits != [3]int{0, 100, 100} {
		t.Fatalf("hits per pass = %v, want 100 cold misses then every warm access hitting", hits)
	}
}

func TestScanLargerThanPoolThrashes(t *testing.T) {
	p := New(50)
	hits := 0
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < 100; i++ {
			if p.Access(PageID(i)) {
				hits++
			}
		}
	}
	if hits != 0 {
		t.Fatalf("sequential over-capacity scan got %d hits under LRU", hits)
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
}

func TestZeroCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

// TestHitRateEmpty: a fresh pool holds no pages, so its first access to
// any page misses.
func TestHitRateEmpty(t *testing.T) {
	p := New(4)
	if p.Len() != 0 || p.Contains(0) {
		t.Fatalf("fresh pool holds %d pages", p.Len())
	}
	if p.Access(0) {
		t.Fatal("first access to a fresh pool hit")
	}
}
