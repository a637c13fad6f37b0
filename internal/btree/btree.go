// Package btree implements the B+tree index used by the database engine.
//
// The tree is a real data structure (the DSS queries execute against it),
// but it also lives in the simulated address space: every node carries a
// simulated address, and Search/Range report the nodes they touch so the
// execution layer can issue the corresponding memory references. The
// *random node-visit pattern of index scans* is what makes ODB-H Q18's CPI
// erratic in the paper (§6.2, citing the known unpredictability of B-tree
// traversals), so the address-level behaviour here is load-bearing.
package btree

import "fmt"

// NodeSize is the simulated size of one tree node in bytes.
const NodeSize = 4096

// Alloc allocates simulated memory for a node and returns its address.
type Alloc func(size uint64) uint64

// Tree is a B+tree mapping int64 keys to int64 values (row ids).
// Duplicate keys are allowed; Range visits them all.
type Tree struct {
	order int // max children of an internal node
	alloc Alloc
	root  *node
	size  int
}

type node struct {
	addr     uint64
	leaf     bool
	keys     []int64
	children []*node // internal nodes
	vals     []int64 // leaf nodes, parallel to keys
	next     *node   // leaf chain
}

// New returns an empty tree with the given branching order (max children
// per internal node, max keys per leaf). It panics if order < 3 or alloc
// is nil.
func New(order int, alloc Alloc) *Tree {
	if order < 3 {
		panic(fmt.Sprintf("btree: order %d < 3", order))
	}
	if alloc == nil {
		panic("btree: nil alloc")
	}
	t := &Tree{order: order, alloc: alloc}
	t.root = t.newNode(true)
	return t
}

func (t *Tree) newNode(leaf bool) *node {
	return &node{addr: t.alloc(NodeSize), leaf: leaf}
}

// Len returns the number of stored entries.
func (t *Tree) Len() int { return t.size }

// keyIndex returns the index of the first key >= k.
func keyIndex(keys []int64, k int64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] < k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// childIndex returns which child to descend into for key k.
func childIndex(keys []int64, k int64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[mid] <= k {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert adds (key, val). Duplicates are permitted.
func (t *Tree) Insert(key, val int64) {
	promoted, right := t.insert(t.root, key, val)
	if right != nil {
		newRoot := t.newNode(false)
		newRoot.keys = append(newRoot.keys, promoted)
		newRoot.children = append(newRoot.children, t.root, right)
		t.root = newRoot
	}
	t.size++
}

// insert descends into n; on split it returns the promoted key and the new
// right sibling.
func (t *Tree) insert(n *node, key, val int64) (int64, *node) {
	if n.leaf {
		i := keyIndex(n.keys, key)
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.vals = append(n.vals, 0)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = val
		if len(n.keys) < t.order {
			return 0, nil
		}
		return t.splitLeaf(n)
	}
	ci := childIndex(n.keys, key)
	promoted, right := t.insert(n.children[ci], key, val)
	if right == nil {
		return 0, nil
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = promoted
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = right
	if len(n.children) <= t.order {
		return 0, nil
	}
	return t.splitInternal(n)
}

func (t *Tree) splitLeaf(n *node) (int64, *node) {
	mid := len(n.keys) / 2
	right := t.newNode(true)
	right.keys = append(right.keys, n.keys[mid:]...)
	right.vals = append(right.vals, n.vals[mid:]...)
	n.keys = n.keys[:mid]
	n.vals = n.vals[:mid]
	right.next = n.next
	n.next = right
	return right.keys[0], right
}

func (t *Tree) splitInternal(n *node) (int64, *node) {
	mid := len(n.keys) / 2
	promoted := n.keys[mid]
	right := t.newNode(false)
	right.keys = append(right.keys, n.keys[mid+1:]...)
	right.children = append(right.children, n.children[mid+1:]...)
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	return promoted, right
}

// Search returns the value of the first entry with the given key. visit, if
// non-nil, receives the simulated address of every node touched (the
// memory references an index probe performs).
//
// Because duplicates may straddle leaf boundaries, the descent takes the
// leftmost feasible path and then follows the leaf chain to the first key
// >= the target.
func (t *Tree) Search(key int64, visit func(addr uint64)) (int64, bool) {
	n := t.root
	for !n.leaf {
		if visit != nil {
			visit(n.addr)
		}
		n = n.children[keyIndex(n.keys, key)]
	}
	for n != nil {
		if visit != nil {
			visit(n.addr)
		}
		i := keyIndex(n.keys, key)
		if i < len(n.keys) {
			if n.keys[i] == key {
				return n.vals[i], true
			}
			return 0, false
		}
		n = n.next
	}
	return 0, false
}

// Range calls emit for every entry with lo <= key <= hi, in key order.
// visit, if non-nil, receives every node address touched (descent plus leaf
// chain). emit returning false stops the scan early.
func (t *Tree) Range(lo, hi int64, visit func(addr uint64), emit func(key, val int64) bool) {
	n := t.root
	for {
		if visit != nil {
			visit(n.addr)
		}
		if n.leaf {
			break
		}
		n = n.children[keyIndex(n.keys, lo)]
	}
	for n != nil {
		for i, k := range n.keys {
			if k < lo {
				continue
			}
			if k > hi {
				return
			}
			if !emit(k, n.vals[i]) {
				return
			}
		}
		n = n.next
		if n != nil && visit != nil {
			visit(n.addr)
		}
	}
}
