package core

import (
	"errors"
	"fmt"
)

// CheckInvariants walks the *current* tree (T_∞) and verifies the
// structural invariants the paper proves (Invariant 4, Invariant 36). It
// must only be called at quiescence (no concurrent updates); it takes no
// locks and does not help. It returns nil if all invariants hold:
//
//   - the tree is full: every internal node has two non-nil children;
//   - leaf-oriented BST property: for every internal node v, keys in the
//     left subtree are < v.key and keys in the right subtree are >= v.key;
//   - the root has key ∞2 and its left subtree holds all finite keys;
//   - the rightmost leaf is the ∞2 sentinel and ∞1 appears exactly once;
//   - node sequence numbers never exceed the counter (Observation 3);
//   - prev chains terminate and are strictly phase-decreasing from any
//     node reachable in any version (acyclicity, Lemma 43 restricted to
//     prev edges, which is what Search termination relies on).
func (t *Map[V]) CheckInvariants() error {
	ctr := t.clock.Now()
	var errs []error
	var walk func(n *node[V], lo, hi int64, depth int)
	seenInf1, seenInf2 := 0, 0
	walk = func(n *node[V], lo, hi int64, depth int) {
		if depth > 1<<22 {
			errs = append(errs, errors.New("depth exceeds 2^22: probable cycle"))
			return
		}
		if n.seqNum() > ctr {
			errs = append(errs, fmt.Errorf("node key=%d seq=%d exceeds counter %d", n.key, n.seqNum(), ctr))
		}
		// prev chain must be finite and phase-nonincreasing.
		steps := 0
		for q := n.prev.Load(); q != nil; q = q.prev.Load() {
			if q.seqNum() > n.seqNum() {
				errs = append(errs, fmt.Errorf("prev chain of key=%d ascends in phase (%d -> %d)", n.key, n.seqNum(), q.seqNum()))
				break
			}
			if steps++; steps > 1<<22 {
				errs = append(errs, fmt.Errorf("prev chain of key=%d too long: probable cycle", n.key))
				break
			}
		}
		if n.key < lo || n.key > hi {
			errs = append(errs, fmt.Errorf("BST violation: key %d outside (%d, %d]", n.key, lo, hi))
		}
		if n.isLeaf() {
			if n.left.Load() != nil || n.right.Load() != nil {
				errs = append(errs, fmt.Errorf("leaf key=%d has children", n.key))
			}
			switch n.key {
			case inf1:
				seenInf1++
			case inf2:
				seenInf2++
			}
			return
		}
		l, r := n.left.Load(), n.right.Load()
		if l == nil || r == nil {
			errs = append(errs, fmt.Errorf("internal key=%d missing a child", n.key))
			return
		}
		// Left subtree strictly below n.key; right subtree at or above.
		walk(l, lo, n.key-1, depth+1)
		walk(r, n.key, hi, depth+1)
	}
	if t.root.key != inf2 {
		errs = append(errs, fmt.Errorf("root key = %d, want ∞2", t.root.key))
	}
	walk(t.root, MinKey, inf2, 0)
	if seenInf1 != 1 {
		errs = append(errs, fmt.Errorf("sentinel ∞1 appears %d times, want 1", seenInf1))
	}
	if seenInf2 != 1 {
		errs = append(errs, fmt.Errorf("sentinel ∞2 appears %d times, want 1", seenInf2))
	}
	return errors.Join(errs...)
}

// CheckVersionInvariants verifies the BST property (Invariant 36) for the
// version tree T_seq, at quiescence.
func (t *Map[V]) CheckVersionInvariants(seq uint64) error {
	var errs []error
	var walk func(n *node[V], lo, hi int64, depth int)
	walk = func(n *node[V], lo, hi int64, depth int) {
		if n == nil {
			errs = append(errs, fmt.Errorf("T_%d unreachable: version chain pruned below phase %d", seq, seq))
			return
		}
		if depth > 1<<22 {
			errs = append(errs, errors.New("depth exceeds 2^22: probable cycle in version tree"))
			return
		}
		if n.seqNum() > seq {
			errs = append(errs, fmt.Errorf("T_%d contains node key=%d from phase %d", seq, n.key, n.seqNum()))
		}
		if n.key < lo || n.key > hi {
			errs = append(errs, fmt.Errorf("T_%d BST violation: key %d outside (%d, %d]", seq, n.key, lo, hi))
		}
		if n.isLeaf() {
			return
		}
		walk(readChild(n, true, seq), lo, n.key-1, depth+1)
		walk(readChild(n, false, seq), n.key, hi, depth+1)
	}
	walk(t.root, MinKey, inf2, 0)
	return errors.Join(errs...)
}

// VersionKeys returns the finite keys of T_seq in ascending order, at
// quiescence, without helping and without opening a new phase. Tests use
// it to compare historical versions against recorded oracle states. It
// panics if the version was already pruned (seq below the last Compact's
// horizon).
func (t *Map[V]) VersionKeys(seq uint64) []int64 {
	var out []int64
	var walk func(n *node[V])
	walk = func(n *node[V]) {
		if n.isLeaf() {
			if n.key <= MaxKey {
				out = append(out, n.key)
			}
			return
		}
		walk(mustReadChild(n, true, seq))
		walk(mustReadChild(n, false, seq))
	}
	walk(t.root)
	return out
}

// Height returns the height of the current tree (root = height 0 tree has
// height 1 here for the root alone; an empty tree reports 2: root plus
// sentinel leaves). Diagnostic only; call at quiescence.
func (t *Map[V]) Height() int {
	var h func(n *node[V]) int
	h = func(n *node[V]) int {
		if n == nil || n.isLeaf() {
			return 1
		}
		lh, rh := h(n.left.Load()), h(n.right.Load())
		if lh > rh {
			return lh + 1
		}
		return rh + 1
	}
	return h(t.root)
}

// NodeCount returns the number of nodes reachable in the current tree
// (internal + leaves, including sentinels). Diagnostic only; quiescence.
func (t *Map[V]) NodeCount() int {
	var c func(n *node[V]) int
	c = func(n *node[V]) int {
		if n.isLeaf() {
			return 1
		}
		return 1 + c(n.left.Load()) + c(n.right.Load())
	}
	return c(t.root)
}
