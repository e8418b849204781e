package core

import (
	"fmt"
	"sync/atomic"

	"repro/internal/epoch"
)

// Map is a PNB-BST whose leaves carry a value of type V: a linearizable
// concurrent map from int64 keys to V with non-blocking
// Insert/Put/Delete/Find/Get and wait-free RangeScan/Snapshot. The set is
// the struct{} instantiation, Tree. The zero value is not usable; call
// NewMap (or New for the set).
//
// Values are immutable once installed: Put on a present key installs a
// fresh leaf whose prev is the old one, so readers of earlier phases keep
// seeing the value bound at their phase. Insert binds a new key to the
// zero V.
//
// All methods are safe for concurrent use by any number of goroutines.
type Map[V any] struct {
	// clock is the tree's phase counter. New gives every tree its own;
	// NewWithClock lets several trees share one, which is what makes
	// cross-shard scans atomic (see Clock and internal/shard).
	clock *Clock

	root  *node[V]
	dummy *descriptor[V]

	// disableHandshake removes the paper's handshaking check (Help,
	// lines 111-113) so that every attempt proceeds as if the counter
	// still matched. Used ONLY by the E9 ablation experiment to make the
	// linearizability violation the handshake prevents observable. Never
	// set this in production use.
	disableHandshake bool

	// readers tracks the phases of in-flight RangeScans and live
	// Snapshots so Compact can bound the reclamation horizon (horizon.go).
	readers epoch.Table

	// sealed permanently retires the tree from updates (Seal); set by a
	// shard migration just before it opens its snapshot-cut phase, so that
	// no update can ever commit here at a phase above the cut (seal.go).
	sealed atomic.Bool

	// pool holds the recycling machinery: the striped pin table that every
	// traversal passes through, the limbo queue Compact feeds, and the
	// node/info free pools it drains into (pool.go).
	pool poolState[V]

	stats Stats
}

// Tree is the PNB-BST set: a Map whose leaves carry no value.
type Tree = Map[struct{}]

// New returns an empty tree, initialized per Figure 2 (lines 28-31): the
// root is an internal node with key ∞2 whose children are leaves ∞1 and
// ∞2, all with sequence number 0 and flagged with the dummy Info object
// (whose state is Abort, i.e. not frozen). The tree gets a private phase
// clock; use NewWithClock to share one clock across several trees.
func New() *Tree { return NewWithClock(NewClock()) }

// NewMap returns an empty map with a private phase clock; see New.
func NewMap[V any]() *Map[V] { return newMap[V](nil) }

// NewWithClock returns an empty tree whose phase counter is the given
// clock (nil gets a fresh private clock). Trees sharing a clock form one
// phase domain: a phase opened on the clock closes the current phase of
// every tree at once, so phase-explicit reads (RangeScanAt, SnapshotAt)
// taken at that phase across the trees form a single atomic cut. The
// price is that the handshaking check now aborts a pending update in any
// tree of the domain when the shared clock advances, wherever the advance
// came from.
func NewWithClock(c *Clock) *Tree { return newMap[struct{}](c) }

// newMap is NewWithClock for any value type.
func newMap[V any](c *Clock) *Map[V] {
	if c == nil {
		c = NewClock()
	}
	t := &Map[V]{clock: c}
	dummyInfo := &info[V]{} // bodiless, decided and never on the retire stack
	dummyInfo.flagD = descriptor[V]{typ: flag, info: dummyInfo}
	dummyInfo.markD = descriptor[V]{typ: mark, info: dummyInfo}
	dummyInfo.state.Store(stateAbort)
	t.dummy = &dummyInfo.flagD
	t.pool.pooling.Store(true)
	t.pool.liveNodes = 3 // root and the two sentinel leaves

	root := &node[V]{key: inf2}
	root.update.Store(t.dummy)
	root.left.Store(t.newLeaf(inf1, 0))
	root.right.Store(t.newLeaf(inf2, 0))
	t.root = root
	return t
}

// NewUnsafeNoHandshake returns a tree with the handshaking check disabled.
// Such a tree is NOT linearizable when range scans run concurrently with
// updates; it exists solely for the E9 ablation experiment.
func NewUnsafeNoHandshake() *Tree {
	t := New()
	t.disableHandshake = true
	return t
}

func checkKey(k int64) {
	if k > MaxKey {
		panic(fmt.Sprintf("core: key %d exceeds MaxKey (%d reserved for sentinels)", k, MaxKey))
	}
}

// readChild implements ReadChild (lines 43-48): follow the left or right
// child pointer of p, then chase prev pointers until reaching the first
// node whose sequence number is at most seq (the "version-seq child").
//
// It returns nil when the chain was cut by the pruner before reaching a
// phase-<=seq version. That can only happen when seq is below the
// reclamation horizon: for registered readers (RangeScan, Snapshot) the
// horizon never passes their phase, and for unregistered traversals
// (Find, Insert, Delete) seq was read from the counter, so a cut chain
// means the counter has moved on and the operation retries with a fresh
// phase (see prune.go for the horizon argument). A poisoned (recycled)
// node deflects stale traversals the same way: its sequence number is the
// poison sentinel, larger than every real phase, so the chase treats it
// as too-new and falls through to its prev, which poisoning set to nil.
func readChild[V any](p *node[V], left bool, seq uint64) *node[V] {
	var l *node[V]
	if left {
		l = p.left.Load()
	} else {
		l = p.right.Load()
	}
	for l != nil && l.seqNum() > seq {
		l = l.prev.Load()
	}
	return l
}

// mustReadChild is readChild for registered readers, whose phase the
// pruner can never overtake; a cut chain here means the registration was
// released while the traversal was still running, and a poisoned node
// means the recycler violated the horizon — both fail loudly.
func mustReadChild[V any](p *node[V], left bool, seq uint64) *node[V] {
	l := readChild(p, left, seq)
	if l == nil {
		panic("core: version chain pruned below an active traversal's phase (Snapshot used after Release?)")
	}
	if l.seqLeaf&^leafBit == poisonSeq {
		panic("core: registered reader reached a recycled node (pool horizon violation)")
	}
	return l
}

// search implements Search(k, seq) (lines 32-42): traverse a branch of
// T_seq from the root to a leaf, returning the leaf, its parent and its
// grandparent (gp is nil when the leaf's parent is the root). A nil leaf
// reports that the pruner cut a version chain under seq; callers restart
// with a fresh phase.
func (t *Map[V]) search(k int64, seq uint64) (gp, p, l *node[V]) {
	l = t.root
	for l != nil && !l.isLeaf() {
		gp = p
		p = l
		l = readChild(p, k < p.key, seq)
	}
	return gp, p, l
}

// validateLink implements ValidateLink (lines 49-59): fail (after helping)
// if parent is frozen, then check that child is still parent's current
// left/right child. On success it returns the un-frozen update value read
// from parent, to be used as the expected value of a later freeze CAS.
func (t *Map[V]) validateLink(parent, child *node[V], left bool) (bool, *descriptor[V]) {
	up := parent.update.Load()
	if frozen(up) {
		t.help(up.info)
		return false, nil
	}
	if left {
		if child != parent.left.Load() {
			return false, nil
		}
	} else {
		if child != parent.right.Load() {
			return false, nil
		}
	}
	return true, up
}

// validateLeaf implements ValidateLeaf (lines 60-68): validate the
// parent→leaf link and (unless p is the root) the grandparent→parent
// link, then re-read both update fields to ensure neither changed.
func (t *Map[V]) validateLeaf(gp, p, l *node[V], k int64) (bool, *descriptor[V], *descriptor[V]) {
	var gpupdate *descriptor[V]
	validated, pupdate := t.validateLink(p, l, k < p.key)
	if validated && p != t.root {
		validated, gpupdate = t.validateLink(gp, p, k < gp.key)
	}
	if validated {
		validated = p.update.Load() == pupdate &&
			(p == t.root || gp.update.Load() == gpupdate)
	}
	return validated, gpupdate, pupdate
}

// opOutcome classifies one single-phase attempt of a point operation.
// opDone carries a result; opRetry means the attempt failed (validation
// race, freeze conflict, or a version chain pruned under the phase) and
// the caller must retry, normally at a fresh phase.
type opOutcome uint8

const (
	opDone opOutcome = iota
	opRetry
)

// findOnce is one attempt of Get at phase seq. Stale phases are safe:
// validateLeaf anchors the traversed branch to the CURRENT child
// pointers, so a success at any seq is a read of the present state (an
// outdated seq merely makes validation likelier to fail and retry).
func (t *Map[V]) findOnce(k int64, seq uint64) (v V, found bool, st opOutcome) {
	gp, p, l := t.search(k, seq)
	if l == nil {
		t.stats.retriesHorizon.Add(1)
		return v, false, opRetry
	}
	validated, _, _ := t.validateLeaf(gp, p, l, k)
	if !validated {
		t.stats.retriesFind.Add(1)
		return v, false, opRetry
	}
	if l.key == k {
		v = l.val
	}
	return v, l.key == k, opDone
}

// Get returns the value bound to k, if any (paper lines 69-82, returning
// the leaf's value). It is linearizable and non-blocking; it helps an
// update only when that update has frozen the parent or grandparent of
// the leaf it arrives at.
func (t *Map[V]) Get(k int64) (V, bool) {
	checkKey(k)
	s := t.pool.pins.enter(k)
	defer t.pool.pins.exit(s)
	for {
		if v, found, st := t.findOnce(k, t.clock.Now()); st == opDone {
			return v, found
		}
	}
}

// Find reports whether k is present: Get with the value dropped.
func (t *Map[V]) Find(k int64) bool {
	_, found := t.Get(k)
	return found
}

// Contains is an alias for Find.
func (t *Map[V]) Contains(k int64) bool { return t.Find(k) }

// casChild implements CAS-Child (lines 83-88).
func casChild[V any](parent, old, new *node[V]) {
	if new.key < parent.key {
		parent.left.CompareAndSwap(old, new)
	} else {
		parent.right.CompareAndSwap(old, new)
	}
}

// Insert adds k to the set, returning false if k was already present
// (paper lines 147-168). Non-blocking. Insert on a sealed tree is a
// routing bug (the caller should have re-resolved the owning tree) and
// panics; composite structures call TryApplyOps, which reports the seal.
func (t *Map[V]) Insert(k int64) bool {
	var zero V
	return t.applyOne(BatchInsert, k, zero, false)
}

// Delete removes k from the set, returning false if k was absent (paper
// lines 169-195). Unlike NB-BST, the surviving sibling is *copied* (with
// the current phase and prev = p) rather than re-linked, which keeps the
// prev/child graph acyclic (paper §4.2). Non-blocking; panics on a sealed
// tree, like Insert.
func (t *Map[V]) Delete(k int64) bool {
	var zero V
	return t.applyOne(BatchDelete, k, zero, false)
}

// Put binds k to v, reporting whether it replaced an existing binding. An
// absent key is inserted exactly as Insert does; a present key's leaf l is
// swapped for a fresh leaf carrying v whose prev is l, so readers of
// earlier phases still find the old value. Non-blocking; panics on a
// sealed tree, like Insert.
func (t *Map[V]) Put(k int64, v V) (replaced bool) {
	return !t.applyOne(BatchInsert, k, v, true)
}

// applyOne runs one update through applyOps as a batch of one on stack
// arrays, panicking on a sealed tree.
func (t *Map[V]) applyOne(kind BatchKind, k int64, v V, replace bool) bool {
	ops := [1]BatchOp{{Kind: kind, Key: k}}
	var res [1]bool
	if _, ok := t.applyOps(ops[:], res[:], nil, v, replace); !ok {
		panic("core: update on a sealed Tree (re-route the key and use TryApplyOps; see Seal)")
	}
	return res[0]
}

// putOnce is one attempt of Insert (paper lines 147-168) at phase seq,
// binding k to v, reporting whether k was absent. With replace set, a
// present key gets the paper's insert attempt with a different new child:
// the same freeze set {p, l} with mark {l}, and in place of the three-node
// subtree a single fresh leaf for k whose prev is l (DESIGN.md §3).
// A stale seq can never commit wrongly: execute's handshake check aborts
// any attempt whose phase no longer matches the clock, so a commit at seq
// proves the clock still read seq at decision time.
func (t *Map[V]) putOnce(k int64, v V, seq uint64, replace bool) (inserted bool, st opOutcome) {
	gp, p, l := t.search(k, seq)
	if l == nil {
		t.stats.retriesHorizon.Add(1)
		return false, opRetry
	}
	validated, _, pupdate := t.validateLeaf(gp, p, l, k)
	if !validated {
		t.stats.retriesInsert.Add(1)
		return false, opRetry
	}
	var newChild *node[V]
	var delta int8
	if l.key == k {
		if !replace {
			return false, opDone // cannot insert duplicate key
		}
		newChild = t.newNode(k, seq, l, true) // +1 new leaf, -1 marked leaf: delta 0
		newChild.val = v
	} else {
		// Build the replacement subtree: an internal node whose two
		// children are a fresh leaf for k and a fresh copy of l
		// (lines 161-163). The internal node's prev points at l.
		nl := t.newLeaf(k, seq)
		nl.val = v
		sib := t.newLeaf(l.key, seq)
		sib.val = l.val
		ni := t.newNode(maxKey(k, l.key), seq, l, false)
		if k < l.key {
			ni.left.Store(nl)
			ni.right.Store(sib)
		} else {
			ni.left.Store(sib)
			ni.right.Store(nl)
		}
		newChild, delta = ni, 2 // +3 new nodes, -1 marked leaf
	}
	ok := t.execute(
		[maxFreeze]*node[V]{p, l},
		[maxFreeze]*descriptor[V]{pupdate, l.update.Load()},
		2, 1<<1, // mark = {l}
		p, l, newChild, seq, delta)
	if ok {
		return l.key != k, opDone
	}
	t.stats.retriesInsert.Add(1)
	return false, opRetry
}

// deleteOnce is one attempt of Delete at phase seq (paper lines 169-195);
// putOnce's note on stale phases applies unchanged.
func (t *Map[V]) deleteOnce(k int64, seq uint64) (res bool, st opOutcome) {
	gp, p, l := t.search(k, seq)
	if l == nil {
		t.stats.retriesHorizon.Add(1)
		return false, opRetry
	}
	validated, gpupdate, pupdate := t.validateLeaf(gp, p, l, k)
	if !validated {
		t.stats.retriesDelete.Add(1)
		return false, opRetry
	}
	if l.key != k {
		return false, opDone // key not in the tree
	}
	// The sibling is on the opposite side of l under p (line 182):
	// if l is p's right child (l.key >= p.key) the sibling is the left.
	sibLeft := l.key >= p.key
	sibling := readChild(p, sibLeft, seq)
	if sibling == nil {
		t.stats.retriesHorizon.Add(1)
		return false, opRetry
	}
	validated, _ = t.validateLink(p, sibling, sibLeft)
	if !validated {
		t.stats.retriesDelete.Add(1)
		return false, opRetry
	}
	// Copy the sibling with the current phase; prev points at p, the
	// node the copy replaces under gp (line 185).
	cp := t.newNode(sibling.key, seq, p, sibling.isLeaf())
	cp.val = sibling.val
	var supdate *descriptor[V]
	if !sibling.isLeaf() {
		cp.left.Store(sibling.left.Load())
		cp.right.Store(sibling.right.Load())
		// Re-validate that the copied children are still current and
		// the sibling is unfrozen (lines 186-188).
		validated, supdate = t.validateLink(sibling, cp.left.Load(), true)
		if validated {
			validated, _ = t.validateLink(sibling, cp.right.Load(), false)
		}
	} else {
		supdate = sibling.update.Load()
	}
	if validated {
		ok := t.execute(
			[maxFreeze]*node[V]{gp, p, l, sibling},
			[maxFreeze]*descriptor[V]{gpupdate, pupdate, l.update.Load(), supdate},
			4, 1<<1|1<<2|1<<3, // mark = {p, l, sibling}
			gp, p, cp, seq, -2) // +1 sibling copy, -3 marked
		if ok {
			return true, opDone
		}
	}
	t.stats.retriesDelete.Add(1)
	return false, opRetry
}

// execute implements Execute (lines 92-106): bail out (helping in-progress
// attempts) if any node to be frozen already is, otherwise publish a fresh
// Info object by flagging nodes[0] and run help to completion. A published
// info is then pushed onto the retire stack, still inside the caller's
// pin, which is what lets Compact find this attempt's garbage without
// walking the tree (prune.go).
func (t *Map[V]) execute(nodes [maxFreeze]*node[V], oldUpdate [maxFreeze]*descriptor[V],
	nn uint8, markMask uint8, par, oldChild, newChild *node[V], seq uint64, delta int8) bool {
	for i := 0; i < int(nn); i++ {
		if frozen(oldUpdate[i]) {
			if inProgress(oldUpdate[i].info) {
				t.stats.helps.Add(1)
				t.help(oldUpdate[i].info)
			}
			return false
		}
	}
	in := t.newInfo()
	*in.body = infoBody[V]{nn: nn, markMask: markMask, delta: delta, nodes: nodes, oldUpdate: oldUpdate,
		par: par, oldChild: oldChild, newChild: newChild, seq: seq}
	if t.freeze(nodes[0], oldUpdate[0], &in.flagD, in.body, 0) { // freeze (flag) CAS
		ok := t.help(in)
		t.retire(in)
		return ok
	}
	// The attempt was never published: no node names in and no other
	// goroutine can reach its body, so both are reused at once, the
	// header with zero refs like every pooled header.
	*in.body = infoBody[V]{}
	in.refs.Store(0)
	t.putHeader(in)
	return false
}

// freeze is one freeze CAS (paper lines 95 and 118): install d, a
// descriptor of the attempt whose body is b, on n if n still holds old,
// the value b.oldUpdate[i] read before the attempt was built. It keeps
// the header reference counts (types.go): d's header is counted before
// the CAS, so its count never falls below the nodes naming it, and old's
// header loses n's reference after a successful CAS. If that was its
// last reference, bit i of b.freed hands the header to Compact, which
// reads the bit after b's attempt is drained.
func (t *Map[V]) freeze(n *node[V], old, d *descriptor[V], b *infoBody[V], i int) bool {
	d.info.refs.Add(1)
	if !n.update.CompareAndSwap(old, d) {
		d.info.refs.Add(-1)
		return false
	}
	if old != t.dummy && old.info.refs.Add(-1) == 0 {
		b.freed.Or(1 << uint(i))
	}
	return true
}

// help implements Help (lines 107-128). A decided attempt is answered from
// its header's state alone: its body may already have been detached and
// recycled (pool.go), and every later step would fail anyway. Otherwise it
// first performs the handshaking check: if the phase counter moved past
// the attempt's seq, a scan may already have traversed the region this
// attempt would modify, so the attempt aborts pro-actively (lines
// 111-112). Then it freezes the remaining nodes, applies the child CAS
// and commits. Any process may help any attempt; only the first freeze
// CAS per node and the first child CAS can succeed. The caller holds a
// pin, so a body read here, once the attempt was seen undecided, stays
// attached until help returns.
func (t *Map[V]) help(in *info[V]) bool {
	if !inProgress(in) {
		return in.state.Load() == stateCommit
	}
	b := in.body
	if !t.disableHandshake && t.clock.Now() != b.seq {
		if in.state.CompareAndSwap(stateUndecided, stateAbort) { // abort CAS
			t.stats.handshakeAborts.Add(1)
		}
	} else {
		in.state.CompareAndSwap(stateUndecided, stateTry) // try CAS
	}
	cont := in.state.Load() == stateTry
	for i := 1; cont && i < int(b.nn); i++ {
		d := &in.flagD
		if b.markMask&(1<<uint(i)) != 0 {
			d = &in.markD
		}
		t.freeze(b.nodes[i], b.oldUpdate[i], d, b, i) // freeze CAS
		cont = b.nodes[i].update.Load().info == in
	}
	if cont {
		casChild(b.par, b.oldChild, b.newChild)
		in.state.Store(stateCommit) // commit write
	} else if in.state.Load() == stateTry {
		in.state.Store(stateAbort) // abort write
	}
	return in.state.Load() == stateCommit
}

func maxKey(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Root sequence accessors used by sibling files and tests.

// phase returns the current value of the phase clock.
func (t *Map[V]) phase() uint64 { return t.clock.Now() }

// Clock returns the tree's phase clock — the one it was constructed with
// (shared with other trees if NewWithClock was used).
func (t *Map[V]) Clock() *Clock { return t.clock }
