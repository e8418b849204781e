package core

// RangeScan returns, in ascending order, every key k of the set with
// a <= k <= b (paper lines 129-133). It is wait-free and linearizable: the
// scan is assigned the phase it reads from the counter, the counter is
// incremented to open a new phase, and the traversal reconstructs T_seq,
// helping (and thereby resolving) exactly the in-progress updates on the
// nodes it visits. Updates of later phases are invisible because the
// traversal moves to version-seq children.
func (t *Tree) RangeScan(a, b int64) []int64 {
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
func (t *Tree) RangeScanFunc(a, b int64, visit func(k int64) bool) {
	if b > MaxKey {
		b = MaxKey
	}
	if a > b {
		return
	}
	// Register before acquiring the phase so Compact's horizon cannot
	// overtake this scan while it runs (horizon.go).
	reg := t.Register()
	defer reg.Release()
	seq := t.clock.Open() // lines 130-131: read the counter, open a new phase
	t.stats.scans.Add(1)
	t.scanInto(t.root, seq, a, b, &visit)
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
func (t *Tree) RangeScanAtFunc(a, b int64, phase uint64, visit func(k int64) bool) {
	if b > MaxKey {
		b = MaxKey
	}
	if a > b {
		return
	}
	t.scanInto(t.root, phase, a, b, &visit)
}

// RangeScanAt returns every key in [a, b] of T_phase, ascending. Same
// contract as RangeScanAtFunc.
func (t *Tree) RangeScanAt(a, b int64, phase uint64) []int64 {
	var out []int64
	t.RangeScanAtFunc(a, b, phase, func(k int64) bool {
		out = append(out, k)
		return true
	})
	return out
}

// RangeCountAt returns the number of keys of T_phase in [a, b] without
// allocating. Same contract as RangeScanAtFunc.
func (t *Tree) RangeCountAt(a, b int64, phase uint64) int {
	n := 0
	t.RangeScanAtFunc(a, b, phase, func(int64) bool {
		n++
		return true
	})
	return n
}

// RangeCount returns the number of keys in [a, b]; a wait-free counting
// scan with zero allocation.
func (t *Tree) RangeCount(a, b int64) int {
	n := 0
	t.RangeScanFunc(a, b, func(int64) bool {
		n++
		return true
	})
	return n
}

// scanInto implements ScanHelper (lines 134-146) over T_seq. It returns
// false when the visitor asked to stop. The visitor pointer avoids
// re-boxing the closure on each recursive call.
func (t *Tree) scanInto(n *node, seq uint64, a, b int64, visit *func(int64) bool) bool {
	if n.isLeaf() {
		if n.key >= a && n.key <= b {
			return (*visit)(n.key)
		}
		return true
	}
	// Help any in-progress update frozen on this node (line 139-140) so
	// that every phase-<=seq update on the traversed region is resolved
	// (committed into T_seq or aborted) before we descend. The check is
	// helpIfPending's, written out so it stays inline on the scan path.
	if in := n.update.Load().info; inProgress(in) {
		t.helpPinned(n.key, in)
	}
	if a > n.key { // whole range is in the right subtree
		return t.scanInto(mustReadChild(n, false, seq), seq, a, b, visit)
	}
	if b < n.key { // whole range is in the left subtree
		return t.scanInto(mustReadChild(n, true, seq), seq, a, b, visit)
	}
	if !t.scanInto(mustReadChild(n, true, seq), seq, a, b, visit) {
		return false
	}
	return t.scanInto(mustReadChild(n, false, seq), seq, a, b, visit)
}

// Keys returns every key currently in the set, ascending. Equivalent to
// RangeScan(MinKey, MaxKey); wait-free.
func (t *Tree) Keys() []int64 { return t.RangeScan(MinKey, MaxKey) }

// Len returns the number of keys in the set via a wait-free counting scan.
func (t *Tree) Len() int { return t.RangeCount(MinKey, MaxKey) }
