package core

import "fmt"

// Bulk construction. Online shard rebalancing (internal/shard) replaces a
// hot or cold shard's tree with freshly built ones holding the keys of a
// single-phase snapshot cut. Rebuilding by repeated Insert would cost
// O(n log n) CAS-heavy updates, burn n phases of version history before
// the tree serves its first operation, and produce an insertion-order
// shape; BuildFromSorted instead assembles the leaf-oriented tree
// directly — perfectly balanced, one allocation per node, no CAS, no
// version chains — from one in-order pass over the sorted key stream.
//
// The built tree is indistinguishable from a quiesced insert-built tree:
// root ∞2 with the ∞1/∞2 sentinel leaves in Figure 2's positions, every
// internal node's key the minimum of its right subtree (exactly what
// Insert's max(k, l.key) produces), every node at sequence number 0 with
// no prev versions, and every update field holding the dummy descriptor.
// Phase-0 nodes are visible to a read of ANY phase, so handing the tree
// to a shard set mid-migration needs no phase fix-up: the first scan at
// the shared clock's current phase sees all keys.

// BuildFromSorted returns a balanced tree holding the n keys produced by
// next, which must yield them in strictly ascending order, each at most
// MaxKey. next is called exactly n times (a pull iterator over a
// Snapshot, or any other sorted source); ok=false from next, descending
// or duplicate keys, or an out-of-range key fail with an error. The tree
// shares clock c (nil gets a private clock), like NewWithClock.
func BuildFromSorted(c *Clock, n int, next func() (int64, bool)) (*Tree, error) {
	return buildFromSorted[struct{}](c, n, next)
}

// buildFromSorted is BuildFromSorted for any value type; every leaf gets
// the zero V.
func buildFromSorted[V any](c *Clock, n int, next func() (int64, bool)) (*Map[V], error) {
	t := newMap[V](c)
	if n == 0 {
		return t, nil
	}
	if n < 0 {
		return nil, fmt.Errorf("core: BuildFromSorted with negative key count %d", n)
	}
	last := int64(MinKey)
	first := true
	pull := func() (int64, error) {
		k, ok := next()
		if !ok {
			return 0, fmt.Errorf("core: BuildFromSorted source ended early (promised %d keys)", n)
		}
		if k > MaxKey {
			return 0, fmt.Errorf("core: BuildFromSorted key %d exceeds MaxKey", k)
		}
		if !first && k <= last {
			return 0, fmt.Errorf("core: BuildFromSorted keys not strictly ascending (%d after %d)", k, last)
		}
		first, last = false, k
		return k, nil
	}
	sub, _, err := t.buildBalanced(n, pull)
	if err != nil {
		return nil, err
	}
	// Mirror the shape Insert grows from the Figure 2 initialization: the
	// root (key ∞2, right child the ∞2 leaf) keeps all finite keys in its
	// left subtree, under an ∞1-keyed internal node whose right child is
	// the ∞1 sentinel leaf. Every user leaf therefore has depth >= 2 — the
	// invariant Delete relies on to always find a grandparent.
	wrap := t.newNode(inf1, 0, nil, false)
	wrap.left.Store(sub)
	wrap.right.Store(t.newLeaf(inf1, 0))
	t.root.left.Store(wrap)
	// n leaves, n-1 internals, wrap, the root and its two sentinel leaves:
	// the size an insert-built tree of n keys has (3 + 2 per insert).
	t.pool.liveNodes = 2*n + 3
	return t, nil
}

// BuildFromSortedKeys is BuildFromSorted over a materialized slice.
func BuildFromSortedKeys(c *Clock, keys []int64) (*Tree, error) {
	i := 0
	return BuildFromSorted(c, len(keys), func() (int64, bool) {
		if i >= len(keys) {
			return 0, false
		}
		k := keys[i]
		i++
		return k, true
	})
}

// buildBalanced assembles a balanced subtree over the next count keys of
// the stream (count >= 1), returning the subtree and its minimum key (the
// key the parent must route by: internal keys are the minimum of their
// right subtree, matching Insert's construction).
func (t *Map[V]) buildBalanced(count int, pull func() (int64, error)) (*node[V], int64, error) {
	if count == 1 {
		k, err := pull()
		if err != nil {
			return nil, 0, err
		}
		return t.newLeaf(k, 0), k, nil
	}
	half := count / 2
	left, lmin, err := t.buildBalanced(half, pull)
	if err != nil {
		return nil, 0, err
	}
	right, rmin, err := t.buildBalanced(count-half, pull)
	if err != nil {
		return nil, 0, err
	}
	n := t.newNode(rmin, 0, nil, false)
	n.left.Store(left)
	n.right.Store(right)
	return n, lmin, nil
}
