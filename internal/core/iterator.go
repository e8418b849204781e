package core

import "runtime"

// MapIterator is a pull-based in-order cursor over a MapSnapshot's keys.
// Like every snapshot read it is wait-free and observes exactly the keys
// of the snapshot's phase, regardless of concurrent updates to the live
// tree.
//
// The iterator maintains an explicit descent stack instead of recursing,
// so callers can interleave Next with other work and abandon iteration at
// any point without cost.
type MapIterator[V any] struct {
	snap  *MapSnapshot[V] // keeps the snapshot (and its horizon registration) reachable
	t     *Map[V]
	seq   uint64
	lo    int64
	hi    int64
	stack []*node[V] // nodes whose left subtree is done but right is pending, plus pending leaves
	cur   int64
	valid bool
}

// Iterator is a cursor over a set Snapshot.
type Iterator = MapIterator[struct{}]

// Iter returns an iterator over the snapshot's keys in [a, b], ascending.
// The iterator holds a reference to the snapshot, so the snapshot's
// versions stay unpruned at least as long as the iterator is reachable
// (even if the caller drops its own Snapshot reference).
func (s *MapSnapshot[V]) Iter(a, b int64) *MapIterator[V] {
	if b > MaxKey {
		b = MaxKey
	}
	it := &MapIterator[V]{snap: s, t: s.t, seq: s.seq, lo: a, hi: b}
	if a <= b {
		s.mustLive()
		it.descend(s.t.root)
	}
	return it
}

// descend pushes the left spine of the subtree rooted at n, pruned to
// [lo, hi], helping in-progress updates exactly as ScanHelper does.
func (it *MapIterator[V]) descend(n *node[V]) {
	for {
		if n.isLeaf() {
			it.stack = append(it.stack, n)
			return
		}
		it.t.helpIfPending(n)
		if it.lo > n.key { // whole window right of the split key
			n = mustReadChild(n, false, it.seq)
			continue
		}
		if it.hi >= n.key {
			// Right subtree intersects the window: revisit n after the
			// left subtree is exhausted.
			it.stack = append(it.stack, n)
		}
		n = mustReadChild(n, true, it.seq)
	}
}

// Next advances to the next key, reporting whether one exists.
func (it *MapIterator[V]) Next() bool {
	defer runtime.KeepAlive(it.snap) // registration must outlive the traversal
	if len(it.stack) > 0 {
		it.snap.mustLive()
	}
	for len(it.stack) > 0 {
		n := it.stack[len(it.stack)-1]
		it.stack = it.stack[:len(it.stack)-1]
		if n.isLeaf() {
			if n.key >= it.lo && n.key <= it.hi {
				it.cur = n.key
				it.valid = true
				return true
			}
			continue
		}
		// n's left side is done; continue into its right subtree.
		it.descend(mustReadChild(n, false, it.seq))
	}
	it.valid = false
	return false
}

// Key returns the key at the current position; valid only after a Next
// that returned true.
func (it *MapIterator[V]) Key() int64 {
	if !it.valid {
		panic("core: Iterator.Key called before a successful Next")
	}
	return it.cur
}
