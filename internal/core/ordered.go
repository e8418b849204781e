package core

// Ordered-set queries. Each opens a new phase (like RangeScan) and walks
// the frozen version tree T_seq, helping in-progress updates exactly as
// ScanHelper does, so each is wait-free with cost O(tree path). They are
// the "processing while traversing" usage the paper highlights.

// Min returns the smallest key in the set, if any. Wait-free.
func (t *Map[V]) Min() (int64, bool) {
	var k int64
	found := false
	t.RangeScanFunc(MinKey, MaxKey, func(x int64) bool {
		k, found = x, true
		return false
	})
	return k, found
}

// Max returns the largest key in the set, if any. Wait-free.
func (t *Map[V]) Max() (int64, bool) { return t.Pred(MaxKey) }

// Succ returns the smallest key >= k, if any. Wait-free: an
// early-stopping scan of [k, MaxKey].
func (t *Map[V]) Succ(k int64) (int64, bool) {
	reg := t.Register()
	defer reg.Release()
	seq := t.clock.Open()
	t.stats.scans.Add(1)
	return t.SuccAt(k, seq)
}

// SuccAt is the phase-explicit form of Succ: the smallest key >= k in
// T_phase, via an early-stopping traversal. Like PredAt it neither opens
// a phase nor counts as a scan, and the caller must hold a Registration
// on this tree taken before phase was opened on the tree's clock.
func (t *Map[V]) SuccAt(k int64, phase uint64) (int64, bool) {
	var got int64
	found := false
	t.RangeScanAtFunc(k, MaxKey, phase, func(x int64) bool {
		got, found = x, true
		return false
	})
	return got, found
}

// Pred returns the largest key <= k, if any. Wait-free: it walks the
// search path of k in T_seq remembering the last node where the walk
// turned right (whose left subtree then holds only keys <= k); the
// answer is either the arrival leaf or the rightmost leaf of that
// pivot's left subtree.
//
// Pivots always carry finite keys (the walk can only turn right at a
// node with key <= k <= MaxKey), so their left subtrees contain no
// sentinel leaves and the rightmost leaf is a valid answer.
func (t *Map[V]) Pred(k int64) (int64, bool) {
	checkKey(k)
	reg := t.Register()
	defer reg.Release()
	seq := t.clock.Open()
	t.stats.scans.Add(1)
	return t.PredAt(k, seq)
}

// PredAt is the phase-explicit form of Pred: the largest key <= k in
// T_phase. Like RangeScanAtFunc it neither opens a phase nor counts as a
// scan, and the caller must hold a Registration on this tree taken
// before phase was opened on the tree's clock.
func (t *Map[V]) PredAt(k int64, phase uint64) (int64, bool) {
	checkKey(k)
	seq := phase
	var pivot *node[V] // last internal node where the walk went right
	n := t.root
	for !n.isLeaf() {
		t.helpIfPending(n)
		if k < n.key {
			n = mustReadChild(n, true, seq)
		} else {
			pivot = n
			n = mustReadChild(n, false, seq)
		}
	}
	if n.key <= k && n.key <= MaxKey {
		return n.key, true
	}
	if pivot == nil {
		return 0, false // never turned right: every key exceeds k
	}
	leaf := t.rightmostLeaf(mustReadChild(pivot, true, seq), seq)
	return leaf.key, true
}

// rightmostLeaf descends right children of T_seq to the subtree's
// largest leaf, helping pending updates on the way.
func (t *Map[V]) rightmostLeaf(n *node[V], seq uint64) *node[V] {
	for !n.isLeaf() {
		t.helpIfPending(n)
		n = mustReadChild(n, false, seq)
	}
	return n
}

// helpIfPending helps the update frozen on n, if one is in progress
// (never the dummy, whose state is Abort). It is the help of registered
// readers, which hold no pin: help reads the info's body, and Compact
// detaches and recycles it once every pin taken before the attempt was
// decided has drained (pool.go). So the rare help pins first and
// re-checks under the pin.
func (t *Map[V]) helpIfPending(n *node[V]) {
	if d := n.update.Load(); inProgress(d.info) {
		t.helpPinned(n, d)
	}
}

// helpPinned is helpIfPending's slow path: pin, re-check, help. The
// re-check covers both things an unpinned load can miss. An attempt
// still undecided under the pin cannot have its body recycled until the
// pin is released. And n still naming d means d's header is in its
// current life, published and counted: the unpinned state load may have
// read a header that was pooled and handed to a new attempt after n
// stopped naming it (pool.go), possibly one not yet published, which
// must not be helped. A header that n no longer names was decided before
// it was replaced, so skipping it skips no help the scan needs.
func (t *Map[V]) helpPinned(n *node[V], d *descriptor[V]) {
	s := t.pool.pins.enter(n.key)
	if n.update.Load() == d && inProgress(d.info) {
		t.stats.helps.Add(1)
		t.help(d.info)
	}
	t.pool.pins.exit(s)
}
