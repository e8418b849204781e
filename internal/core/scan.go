package core

// RangeScan returns, in ascending order, every key k of the set with
// a <= k <= b (paper lines 129-133). It is wait-free and linearizable: the
// scan is assigned the phase it reads from the counter, the counter is
// incremented to open a new phase, and the traversal reconstructs T_seq,
// helping (and thereby resolving) exactly the in-progress updates on the
// nodes it visits. Updates of later phases are invisible because the
// traversal moves to version-seq children.
func (t *Map[V]) RangeScan(a, b int64) []int64 {
	var out []int64
	t.RangeScanFunc(a, b, func(k int64) bool {
		out = append(out, k)
		return true
	})
	return out
}

// RangeScanFunc visits every key in [a, b] in ascending order, calling
// visit for each; if visit returns false the traversal stops early. The
// early stop does not affect linearizability (the scan still owns its
// phase); it simply truncates the result. No per-key allocation is
// performed, matching the paper's remark that a scan "may print keys (or
// perform some processing of the nodes, e.g., counting them) as it
// traverses the tree, thus avoiding any space overhead".
func (t *Map[V]) RangeScanFunc(a, b int64, visit func(k int64) bool) {
	t.scan(&scanner[V]{a: a, b: b, key: visit})
}

// EntriesFunc is RangeScanFunc for a map: it visits every key in [a, b]
// with the value bound to it at the scan's phase, in ascending key order.
// Wait-free, no per-entry allocation.
func (t *Map[V]) EntriesFunc(a, b int64, visit func(k int64, v V) bool) {
	t.scan(&scanner[V]{a: a, b: b, entry: visit})
}

// scan is RangeScanFunc and EntriesFunc: register, open a phase, traverse.
func (t *Map[V]) scan(s *scanner[V]) {
	s.b = min(s.b, MaxKey)
	if s.a > s.b {
		return
	}
	// Register before acquiring the phase so Compact's horizon cannot
	// overtake this scan while it runs (horizon.go).
	reg := t.Register()
	defer reg.Release()
	s.t, s.seq = t, t.clock.Open() // lines 130-131: read the counter, open a new phase
	t.stats.scans.Add(1)
	s.scanInto(t.root)
}

// RangeScanAtFunc is the phase-explicit form of RangeScanFunc: it
// traverses T_phase — the frozen tree of an already-opened phase — calling
// visit for every key in [a, b] in ascending order (visit returning false
// stops early). It neither opens a phase nor counts as a scan in Stats:
// the caller owns the phase and the accounting. This is the entry point
// composite structures use to take one atomic cut across several trees
// sharing a Clock (internal/shard): open ONE phase, then RangeScanAtFunc
// every tree at it.
//
// Contract: the caller must hold, for the whole call, a Registration on
// THIS tree that was taken before phase was opened on the tree's clock;
// otherwise Compact may prune versions the traversal still needs (which
// panics rather than returning wrong data). Wait-free, like RangeScanFunc.
func (t *Map[V]) RangeScanAtFunc(a, b int64, phase uint64, visit func(k int64) bool) {
	s := scanner[V]{t: t, seq: phase, a: a, b: min(b, MaxKey), key: visit}
	if s.a <= s.b {
		s.scanInto(t.root)
	}
}

// RangeScanAt returns every key in [a, b] of T_phase, ascending. Same
// contract as RangeScanAtFunc.
func (t *Map[V]) RangeScanAt(a, b int64, phase uint64) []int64 {
	var out []int64
	t.RangeScanAtFunc(a, b, phase, func(k int64) bool {
		out = append(out, k)
		return true
	})
	return out
}

// RangeCountAt returns the number of keys of T_phase in [a, b] without
// allocating. Same contract as RangeScanAtFunc.
func (t *Map[V]) RangeCountAt(a, b int64, phase uint64) int {
	n := 0
	t.RangeScanAtFunc(a, b, phase, func(int64) bool {
		n++
		return true
	})
	return n
}

// RangeCount returns the number of keys in [a, b]; a wait-free counting
// scan with zero allocation.
func (t *Map[V]) RangeCount(a, b int64) int {
	n := 0
	t.RangeScanFunc(a, b, func(int64) bool {
		n++
		return true
	})
	return n
}

// scanner is one traversal of T_seq over the keys in [a, b]: ScanHelper's
// arguments, gathered so that each recursive step passes only the node.
// Exactly one of key and entry is set. Branching at the leaf, rather than
// adapting a key visitor into an entry visitor, keeps the set's scan at
// one direct call per key.
type scanner[V any] struct {
	t     *Map[V]
	seq   uint64
	a, b  int64
	key   func(k int64) bool
	entry func(k int64, v V) bool
}

// scanInto implements ScanHelper (lines 134-146) over T_seq from n. It
// returns false when the visitor asked to stop.
func (s *scanner[V]) scanInto(n *node[V]) bool {
	if n.isLeaf() {
		if n.key < s.a || n.key > s.b {
			return true
		}
		if s.key != nil {
			return s.key(n.key)
		}
		return s.entry(n.key, n.val)
	}
	// Help any in-progress update frozen on this node (line 139-140) so
	// that every phase-<=seq update on the traversed region is resolved
	// (committed into T_seq or aborted) before we descend. The check is
	// helpIfPending's, written out so it stays inline on the scan path.
	if d := n.update.Load(); inProgress(d.info) {
		s.t.helpPinned(n, d)
	}
	if s.a > n.key { // whole range is in the right subtree
		return s.scanInto(mustReadChild(n, false, s.seq))
	}
	if s.b < n.key { // whole range is in the left subtree
		return s.scanInto(mustReadChild(n, true, s.seq))
	}
	if !s.scanInto(mustReadChild(n, true, s.seq)) {
		return false
	}
	return s.scanInto(mustReadChild(n, false, s.seq))
}

// Keys returns every key currently in the set, ascending. Equivalent to
// RangeScan(MinKey, MaxKey); wait-free.
func (t *Map[V]) Keys() []int64 { return t.RangeScan(MinKey, MaxKey) }

// Len returns the number of keys in the set via a wait-free counting scan.
func (t *Map[V]) Len() int { return t.RangeCount(MinKey, MaxKey) }
