// Package bufpool models the database server's main-memory buffer cache —
// the Oracle SGA of the paper's setup (§2.3). ODB-C runs with a 14GB SGA
// that holds most of the working set; ODB-H runs with 2GB. Whether a page
// access hits the pool determines whether the accessing thread merely
// touches memory (and the CPU cache hierarchy) or blocks on a disk read,
// so the pool's hit rate drives both the CPI and the context-switch
// behaviour of the database workloads.
package bufpool

import (
	"container/list"
	"fmt"
)

// PageID identifies a database page.
type PageID uint64

// Pool is an LRU buffer cache over database pages.
type Pool struct {
	capacity int
	lru      *list.List               // front = most recent
	index    map[PageID]*list.Element // page -> node
}

// New returns a pool holding up to capacity pages. It panics if
// capacity <= 0.
func New(capacity int) *Pool {
	if capacity <= 0 {
		panic(fmt.Sprintf("bufpool: New capacity=%d", capacity))
	}
	return &Pool{capacity: capacity, lru: list.New(), index: make(map[PageID]*list.Element, capacity)}
}

// Access touches page, returning true on a hit. On a miss the page is
// brought in, evicting the LRU page if the pool is full; the caller models
// the corresponding disk read.
func (p *Pool) Access(page PageID) bool {
	if e, ok := p.index[page]; ok {
		p.lru.MoveToFront(e)
		return true
	}
	if p.lru.Len() >= p.capacity {
		back := p.lru.Back()
		p.lru.Remove(back)
		delete(p.index, back.Value.(PageID))
	}
	p.index[page] = p.lru.PushFront(page)
	return false
}
