package core

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// This file implements post-horizon memory recycling for nodes, for the
// bodies of decided infos and for info headers no node names any more.
//
// Reclamation happens in three stages, all driven by Compact (prune.go):
//
//  1. Cut: the pruner drains the retire stack — every published attempt
//     info, pushed by its owner once help returned — and, for each
//     committed attempt whose phase has fallen to the reclamation horizon
//     H, cuts newChild.prev. Behind that cut are exactly the nodes the
//     attempt marked, and no registered reader (phase >= H) can need them.
//  2. Limbo: the marked nodes, plus the drained infos themselves, are
//     collected into a limboBatch. Neither can be touched yet: an
//     UNREGISTERED traversal (Find or TryApplyOps, or a helper
//     inside one) may still hold pointers into the batch, read before the
//     cut, may still issue CASes on those nodes, and may still be inside
//     help reading a drained info's node references.
//  3. Drain + recycle: every unregistered traversal, and every help by a
//     registered reader, holds a striped pin counter for its full
//     duration. The batch records which stripes were non-zero after the
//     cuts; a later observation clears a stripe's bit once it sees that
//     stripe at zero. When all bits clear, every traversal that could
//     have seen the batch's memory has finished (sync/atomic's seq-cst
//     total order makes the cut-store → zero-load → pin-add →
//     traversal-load chain airtight), so the nodes are poisoned and
//     pushed to the per-tree node pool, and the infos have their bodies
//     detached, zeroed and pushed to the per-tree body pool.
//
// Info headers follow their own path. A header's refs (types.go) reaches
// zero once its body is detached and no node names it: every node that
// did was re-frozen by a later attempt or poisoned. Compact learns of it
// when it detaches the body (the drained commit's marked nodes, poisoned
// in the same step, gave theirs up when the drain collected them), or
// from the freed bits of the body whose freeze CAS replaced the last
// reference. The header then waits two more pin drains
// in the header lists before it is pooled (ripenHeaders). The first waits
// out every traversal that read one of its descriptors from a node: after
// it, none can compare, help or CAS with that descriptor. It also waits
// out the owner of every attempt that copied such a descriptor into
// body.oldUpdate, so once it ends each such attempt is decided. The
// second waits out the helpers of those attempts, which may have pinned
// after the first drain began and may still issue help's freeze CAS
// expecting the descriptor; a helper that pins after the first drain
// ended sees the attempt decided and issues no CAS. A header whose first
// freeze CAS failed was never seen by anyone else and is pooled at once,
// with its body.
//
// Why this preserves the paper's no-ABA argument (Lemma 7): a freeze CAS
// succeeds spuriously only if its expected *descriptor is re-installed at
// the same address. A reused header's descriptors are installed only
// after both drains, when no CAS that expects them from the header's
// earlier life can still be issued. A node address or an info body
// re-enters circulation only after (a) the horizon passed every
// registered reader and (b) the pin drain proved no unregistered
// traversal from before the cut is still running; any CAS issued after
// that is by a traversal that pinned after the drain, whose targets were
// therefore read after the recycled node left the tree, and any help
// issued after that sees the attempt decided. Registered readers load
// update and state without a pin, so they re-check the node's update
// word under the pin before helping (helpPinned). DESIGN.md §10.3 has the
// full argument, including the suspended-helper case.

// poisonSeq is stored in the seq bits of a recycled node's seqLeaf while
// it sits in the pool: larger than any real phase, so a stale readChild
// chase treats the node as too-new and falls through to its (nil'd) prev,
// and a registered reader that somehow reaches one fails loudly
// (mustReadChild). Reuse overwrites it.
const poisonSeq = leafBit - 1

// pinStripes is the number of pin counters; must stay 64 so a limbo
// batch's waiting set fits one word.
const pinStripes = 64

// pinStripe is one padded counter (own cache line to stop false sharing
// between stripes — same layout trick as internal/epoch's slots).
type pinStripe struct {
	n atomic.Int64
	_ [56]byte
}

// pinTable is a striped count of in-flight traversals that may touch
// limbo memory: Find and TryApplyOps (every update, and the helping it
// does) hold a pin for their full duration. Registered readers
// (scans, snapshots, ordered queries, iterators) pin only around their
// rare help (helpIfPending); their traversals need no pin because the
// horizon already protects them — a registered reader at phase s >= H
// stops at every committed attempt's newChild (phase <= H) or earlier, so
// it never steps behind a cut. Stripes exist only to spread contention;
// correctness needs only that each such traversal holds SOME stripe.
type pinTable struct {
	stripes [pinStripes]pinStripe
}

// enter pins a traversal keyed by k and returns the stripe to exit with.
func (p *pinTable) enter(k int64) int {
	i := int((uint64(k) * 0x9e3779b97f4a7c15) >> 58)
	p.stripes[i].n.Add(1)
	return i
}

func (p *pinTable) exit(i int) {
	p.stripes[i].n.Add(-1)
}

// busy returns the set of stripes now non-zero: the start of a drain.
func (p *pinTable) busy() uint64 {
	var w uint64
	for i := range p.stripes {
		if p.stripes[i].n.Load() != 0 {
			w |= 1 << uint(i)
		}
	}
	return w
}

// stillBusy returns w without the stripes now observed at zero. A drain
// that started with w is complete once this returns 0.
func (p *pinTable) stillBusy(w uint64) uint64 {
	for v := w; v != 0; v &= v - 1 {
		i := bits.TrailingZeros64(v)
		if p.stripes[i].n.Load() == 0 {
			w &^= 1 << uint(i)
		}
	}
	return w
}

// limboBatch holds one drain's garbage until the pin drain proves it
// unreachable from any in-flight traversal.
type limboBatch[V any] struct {
	nodes   []*node[V] // marked nodes of drained commits: poisoned and pooled
	infos   []*info[V] // drained attempt infos: bodies detached and pooled
	waiting uint64     // bit i set ⇒ stripe i not yet observed idle since the batch's cuts
}

// headerList holds headers with zero refs through one pin drain. It
// costs no memory of its own: a parked header carries a zeroed body (its
// own, the drained body whose freeze CAS freed it, or one from the body
// pool) whose retireNext links the list, and
// newInfo hands the body out again with the header. Headers that join a
// list add the stripes busy at that moment to waiting, so every header
// waits at least for the stripes busy when it joined.
type headerList[V any] struct {
	head, tail *info[V]
	waiting    uint64
}

// push appends in, which must carry a body.
func (l *headerList[V]) push(in *info[V]) {
	if l.tail == nil {
		l.head = in
	} else {
		l.tail.body.retireNext = in
	}
	l.tail = in
}

// splice moves o's headers to the end of l.
func (l *headerList[V]) splice(o *headerList[V]) {
	if o.head == nil {
		return
	}
	if l.tail == nil {
		l.head = o.head
	} else {
		l.tail.body.retireNext = o.head
	}
	l.tail = o.tail
	o.head, o.tail = nil, nil
}

// poolState is the reclamation machinery embedded in Map.
type poolState[V any] struct {
	pins    pinTable
	pooling atomic.Bool // node recycling enabled (default on; SetPooling)

	// retired is the retire stack's head: a Treiber stack linked through
	// info.retireNext. Owners push (retire); only Compact pops, and it
	// pops the whole stack at once, so there is no ABA.
	retired atomic.Pointer[info[V]]

	// compactMu serializes Compact passes; everything below it is guarded
	// by it.
	compactMu sync.Mutex

	// horizon is the highest horizon a pass has used. Passes never go
	// below it (prune.go), which is safe because every reader registered
	// after a pass read the clock holds a phase at or above that pass's
	// horizon (epoch's ordering contract).
	horizon uint64

	// liveNodes is |T_H|, the size of the tree at the last pass's horizon
	// phase: seeded by New/BuildFromSorted, then moved by each drained
	// commit's info.delta.
	liveNodes int

	// pending holds popped infos that could not be drained yet (phase
	// above the horizon); retried first by every pass.
	pending []*info[V]

	limbo []*limboBatch[V] // awaiting their pin drain
	ripe  []*limboBatch[V] // drained, recycled at the end of the pass
	spare []*limboBatch[V] // emptied batches whose slices the next drains reuse

	// hdrs are the headers with zero refs in their first and in their
	// second pin drain (ripenHeaders).
	hdrs [2]headerList[V]

	nodes   sync.Pool // of *node, poisoned
	bodies  sync.Pool // of *infoBody, zeroed, detached from drained infos
	headers sync.Pool // of *info with zero refs, carrying a zeroed body
}

// infoAlloc is an info header allocated together with its body: newInfo's
// single allocation when pooling is off. It exists only so that an
// attempt costs one allocation with pooling off, as the unpooled
// allocation-budget tests count; the price is that a drained body cannot
// be freed before its header (160 B retained per decided info that a
// node still names, DESIGN.md §10.4).
type infoAlloc[V any] struct {
	hdr  info[V]
	body infoBody[V]
}

// SetPooling enables or disables node/info recycling. It defaults to on;
// the off position exists for the E12 ablation and for allocation-budget
// tests that need deterministic allocation counts. Turning pooling off
// stops both reuse and limbo collection of nodes and stops pooling info
// headers (garbage reverts to the GC); objects already in the pools are
// simply never handed out again. Drained infos have their bodies detached
// and zeroed either way.
func (t *Map[V]) SetPooling(on bool) { t.pool.pooling.Store(on) }

// PoolingEnabled reports whether node/info recycling is on.
func (t *Map[V]) PoolingEnabled() bool { return t.pool.pooling.Load() }

// getNode returns a pooled node if recycling is on and one is available,
// else a fresh allocation. Pooled nodes come back poisoned (all pointers
// nil, val zero); the caller overwrites every other field.
func (t *Map[V]) getNode() *node[V] {
	if t.pool.pooling.Load() {
		if v := t.pool.nodes.Get(); v != nil {
			t.stats.poolNodeHits.Add(1)
			return v.(*node[V])
		}
	}
	return &node[V]{}
}

// newLeaf hands out a leaf initialized as the paper's Insert does
// (lines 161-162): fresh leaves have prev = ⊥. Its val is zero; a caller
// binding a value sets it before publishing.
func (t *Map[V]) newLeaf(key int64, seq uint64) *node[V] {
	n := t.getNode()
	n.key = key
	n.seqLeaf = packSeqLeaf(seq, true)
	n.prev.Store(nil)
	n.update.Store(t.dummy)
	return n
}

// newNode hands out a node whose prev pointer is initialized to the
// replaced node (the paper writes prev at creation; it is never changed
// afterwards except for the pruner's cut to nil). Callers set left/right
// (internal nodes) or val (leaves) before publishing.
func (t *Map[V]) newNode(key int64, seq uint64, prev *node[V], leaf bool) *node[V] {
	n := t.getNode()
	n.key = key
	n.seqLeaf = packSeqLeaf(seq, leaf)
	n.prev.Store(prev)
	n.update.Store(t.dummy)
	return n
}

// newInfo hands out a 48 B header in state ⊥ with its embedded
// flag/mark descriptors wired to itself, refs 1 (its body's reference)
// and a zeroed body attached. With pooling on, a pooled header comes
// with the body it carried through its drains and a fresh header takes
// a pooled body when there is one; with pooling off header and body are
// one allocation.
//
// A pooled header's descriptors are not rewritten: a registered reader
// may still read them through a node it loaded before the header was
// pooled. Resetting state to ⊥ is safe for the same reader because it
// helps only after re-checking, under a pin, that the node still names
// the descriptor (helpPinned), which a header not yet published fails.
func (t *Map[V]) newInfo() *info[V] {
	var in *info[V]
	if !t.pool.pooling.Load() {
		a := new(infoAlloc[V])
		in = &a.hdr
		in.body = &a.body
		in.flagD = descriptor[V]{typ: flag, info: in}
		in.markD = descriptor[V]{typ: mark, info: in}
	} else if v := t.pool.headers.Get(); v != nil {
		t.stats.poolInfoHits.Add(1)
		in = v.(*info[V])
		in.state.Store(stateUndecided)
	} else {
		in = new(info[V])
		in.flagD = descriptor[V]{typ: flag, info: in}
		in.markD = descriptor[V]{typ: mark, info: in}
		in.body = t.getBody()
	}
	in.refs.Store(1)
	return in
}

// getBody returns a zeroed body: a pooled one if there is one, else a
// new one.
func (t *Map[V]) getBody() *infoBody[V] {
	if v := t.pool.bodies.Get(); v != nil {
		t.stats.poolInfoHits.Add(1)
		return v.(*infoBody[V])
	}
	return new(infoBody[V])
}

// putBody pools a zeroed, detached body.
func (t *Map[V]) putBody(b *infoBody[V]) {
	t.pool.bodies.Put(b)
	t.stats.poolInfoPuts.Add(1)
}

// putHeader pools a header, carrying a zeroed body, that nothing can
// reach through its old life any more: one whose two drains passed after
// its refs reached zero, or one that was never published. With pooling
// off it is left to the GC.
func (t *Map[V]) putHeader(in *info[V]) {
	if t.pool.pooling.Load() {
		t.pool.headers.Put(in)
		t.stats.poolInfoPuts.Add(1)
	}
}

// retire pushes a published info onto the retire stack. Called by the
// attempt's owner once help has returned (the attempt is decided), still
// inside the owner's pin — the ordering Compact's ripen relies on.
func (t *Map[V]) retire(in *info[V]) {
	for {
		head := t.pool.retired.Load()
		in.body.retireNext = head
		if t.pool.retired.CompareAndSwap(head, in) {
			return
		}
	}
}

// recycleBody detaches an info's body, zeroes it and, with pooling on,
// pools it. The caller must have proved that nothing can still read the
// body: for a drained info, that no helper which saw the attempt
// undecided is still running (the pin drain) — help reads the body only
// then, and a later help sees the header's decided state and stops; for
// an info whose first freeze CAS failed, nothing else ever saw it.
func (t *Map[V]) recycleBody(in *info[V]) {
	b := in.body
	in.body = nil
	*b = infoBody[V]{}
	if t.pool.pooling.Load() {
		t.putBody(b)
	}
}

// poisonAndPutNode severs a drained node's references, zeroes its value
// (a pooled leaf must not keep a user value alive), stamps the poison
// sentinel and pushes it to the pool.
func (t *Map[V]) poisonAndPutNode(n *node[V]) {
	var zero V
	n.key = 0
	n.val = zero
	n.seqLeaf = poisonSeq
	n.prev.Store(nil)
	n.left.Store(nil)
	n.right.Store(nil)
	n.update.Store(nil)
	t.pool.nodes.Put(n)
	t.stats.poolNodePuts.Add(1)
}

// newBatch returns an empty limbo batch, reusing an emptied one (and its
// slices) when there is one.
func (t *Map[V]) newBatch() *limboBatch[V] {
	p := &t.pool
	if n := len(p.spare); n > 0 {
		b := p.spare[n-1]
		p.spare[n-1] = nil
		p.spare = p.spare[:n-1]
		return b
	}
	return new(limboBatch[V])
}

// freeBatch empties a batch and keeps it for reuse.
func (t *Map[V]) freeBatch(b *limboBatch[V]) {
	clear(b.nodes)
	clear(b.infos)
	b.nodes, b.infos, b.waiting = b.nodes[:0], b.infos[:0], 0
	t.pool.spare = append(t.pool.spare, b)
}

// enqueueLimbo records a drain's garbage with a snapshot of the
// currently-busy pin stripes. MUST run after the drain's cuts: a stripe
// observed zero here can only belong to traversals that pinned after the
// cuts and therefore cannot reach the batch.
func (t *Map[V]) enqueueLimbo(b *limboBatch[V]) {
	if len(b.nodes) == 0 && len(b.infos) == 0 {
		t.freeBatch(b)
		return
	}
	b.waiting = t.pool.pins.busy()
	t.pool.limbo = append(t.pool.limbo, b)
}

// ripen clears waiting bits for stripes now observed idle and moves every
// fully drained batch from limbo to ripe. Called under compactMu.
//
// A ripe batch may be recycled only after the retire stack has been
// popped and drained AFTER this observation. The reason is the one write
// the pruner makes to memory it does not own: the cut of newChild.prev.
// A node N can reach limbo (marked by a later attempt) while the info
// that created N is not yet on the stack — its owner pushes only after
// help returns. The owner is pinned until after that push, so once N's
// batch is observed drained the push has happened; a pop after the
// observation therefore sees the info (or an earlier pop did), and the
// pass cuts N.prev before N is recycled rather than after.
func (t *Map[V]) ripen() {
	kept := t.pool.limbo[:0]
	for _, b := range t.pool.limbo {
		if b.waiting = t.pool.pins.stillBusy(b.waiting); b.waiting == 0 {
			t.pool.ripe = append(t.pool.ripe, b)
		} else {
			kept = append(kept, b)
		}
	}
	clear(t.pool.limbo[len(kept):]) // no stale batch pointers past len
	t.pool.limbo = kept
}

// recycleRipe recycles the ripe batches' info bodies and pools their
// nodes, returning how many of each it handled. A body's release drops
// its header's last reference unless a node still names the header
// (drainInfo already took the references of the marked nodes poisoned
// here). A header left with none starts its two drains, and so does every
// header a body's freeze CASes left with none (freed); with pooling off
// they are left to the GC. A parked header needs a zeroed body to carry:
// its own if it still has it, else the drained body that freed it, and
// only past the first such header one from the body pool.
func (t *Map[V]) recycleRipe() (nodes, infos int) {
	first := &t.pool.hdrs[0]
	parked := first.tail
	pooling := t.pool.pooling.Load()
	for i, b := range t.pool.ripe {
		for _, n := range b.nodes {
			t.poisonAndPutNode(n)
		}
		for _, in := range b.infos {
			if !pooling {
				in.refs.Add(-1)
				t.recycleBody(in)
				continue
			}
			body := in.body
			var freed [maxFreeze]*info[V]
			nf := 0
			for f := body.freed.Load(); f != 0; f &= f - 1 {
				freed[nf] = body.oldUpdate[bits.TrailingZeros32(f)].info
				nf++
			}
			*body = infoBody[V]{}
			if in.refs.Add(-1) == 0 { // the body's reference was the last
				first.push(in)
				body = nil
			} else {
				in.body = nil
			}
			for _, h := range freed[:nf] {
				if h.body = body; body == nil {
					h.body = t.getBody()
				}
				body = nil
				first.push(h)
			}
			if body != nil {
				t.putBody(body)
			}
		}
		nodes += len(b.nodes)
		infos += len(b.infos)
		t.freeBatch(b)
		t.pool.ripe[i] = nil
	}
	t.pool.ripe = t.pool.ripe[:0]
	if first.tail != parked {
		first.waiting |= t.pool.pins.busy()
	}
	return nodes, infos
}

// ripenHeaders advances the two header lists and returns how many
// headers it pooled. The second list's headers are pooled once its
// waiting stripes were all seen idle. The first list's headers, once
// its stripes were, have finished their first drain and join the second
// list, adding the stripes busy now, after that drain ended. On a
// quiescent tree both drains end in one call, every stripe seen idle
// twice in a row (once when the headers were parked, once here), so a
// quiescent Compact leaves no header waiting. Compact calls it before
// recycleRipe parks new headers, so a list's stripes were observed busy
// one pass earlier and a steady load cannot starve it, and again after.
// Called under compactMu.
func (t *Map[V]) ripenHeaders() (pooled int) {
	p := &t.pool
	first, second := &p.hdrs[0], &p.hdrs[1]
	if second.waiting = p.pins.stillBusy(second.waiting); second.waiting == 0 {
		pooled = t.poolHeaders(second)
	}
	if first.waiting = p.pins.stillBusy(first.waiting); first.waiting == 0 && first.head != nil {
		second.splice(first)
		if second.waiting |= p.pins.busy(); second.waiting == 0 {
			pooled += t.poolHeaders(second)
		}
	}
	return pooled
}

// poolHeaders empties a header list into the header pool and returns
// how many headers it held.
func (t *Map[V]) poolHeaders(l *headerList[V]) (n int) {
	for in := l.head; in != nil; n++ {
		next := in.body.retireNext
		in.body.retireNext = nil
		t.putHeader(in)
		in = next
	}
	l.head, l.tail = nil, nil
	return n
}

// limboSize reports how many batches are awaiting their pin drain
// (whitebox tests).
func (t *Map[V]) limboSize() int { return len(t.pool.limbo) }
