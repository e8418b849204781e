package core

// Version pruning. Every published attempt info lands on the tree's
// retire stack when its attempt returns (execute); Compact drains that
// stack instead of walking the version graph, so a pass costs what the
// garbage costs, not what the tree costs.
//
// For a committed attempt at phase seq <= Horizon() the drain cuts
// newChild.prev. newChild was created at seq, so every reader with phase
// >= H stops at newChild (or at a newer version in front of it) and none
// can need what is behind it. Behind the cut are exactly the nodes the
// attempt marked — Insert's and Put's leaf, Delete's parent, leaf and
// sibling: a marked node left the tree at seq, its only parent slot now
// leads to newChild, and every older parent it had was itself marked at a
// phase <= seq (DESIGN.md §6.2). Those nodes, and the drained infos'
// bodies, go to the limbo → pin-drain → pool pipeline (pool.go), and the
// info headers they leave unnamed follow after two more drains. An
// aborted attempt changed nothing in the tree; its info is drained at
// once. An attempt above the horizon (or, defensively, still undecided)
// waits for a later pass.
//
// What a cut may and may not remove (DESIGN.md §6): it only unlinks
// versions strictly behind a phase-<=H node and never relinks a chain
// around a middle node. Cutting is monotone (prev only ever changes to
// nil). Compact passes are serialized by an internal mutex (limbo
// bookkeeping needs a single writer), and Compact is safe concurrently
// with updates and registered readers: updaters never read prev except
// through ReadChild, which retries the operation at a fresh phase when it
// meets a cut chain (tree.go).

import (
	"math/bits"

	"repro/internal/obs"
)

// CompactStats reports one Compact pass.
type CompactStats struct {
	Horizon       uint64 // reclamation horizon the pass used
	LiveNodes     int    // |T_H|: nodes in the tree at the horizon phase
	PrunedLinks   uint64 // prev links cut by this pass (also behind already-garbage nodes)
	RetiredInfos  uint64 // attempt infos drained from the retire stack
	GarbageNodes  int    // nodes this pass moved into limbo (0 with pooling off)
	RecycledNodes int    // limbo nodes whose pin drain completed and entered the pool
	RecycledInfos int    // limbo infos whose pin drain completed and whose bodies were detached and recycled
	PooledHeaders int    // info headers pooled: no node named them and two pin drains passed since (0 with pooling off)
}

// Compact prunes all versions behind the current reclamation horizon,
// moves the disconnected nodes into limbo, recycles previously-limboed
// garbage whose pin drain has completed, and returns the pass's
// statistics. Its cost is proportional to the updates since the last pass
// (plus those held back by the horizon), not to the tree: a pass on an
// idle tree does O(1) work. It runs concurrently with any mix of
// operations; updates that retire during the pass are left for the next.
// Typical use is periodic (see bst.ShardedMap.StartAutoCompact) or after
// bursts of updates.
func (t *Map[V]) Compact() CompactStats {
	p := &t.pool
	p.compactMu.Lock()
	defer p.compactMu.Unlock()

	// Never prune below an earlier pass's horizon (see poolState.horizon):
	// a reader that registered late may publish a bound below it, but its
	// phase is not, and a monotone horizon is what guarantees that an
	// info popped after its newChild reached limbo is drainable at once.
	h := max(t.Horizon(), p.horizon)
	p.horizon = h
	cs := CompactStats{Horizon: h}

	// Each drain is preceded by a ripen (see ripen for why). The first
	// pair recycles batches drained since earlier passes; the second lets
	// this pass's own batch recycle when no pin was held across its cuts
	// (always true for a quiescent tree).
	t.ripen()
	t.drainRetired(h, &cs)
	t.ripen()
	t.drainRetired(h, &cs)
	cs.PooledHeaders = t.ripenHeaders()
	cs.RecycledNodes, cs.RecycledInfos = t.recycleRipe()
	cs.PooledHeaders += t.ripenHeaders()
	cs.LiveNodes = p.liveNodes

	t.stats.compactions.Add(1)
	t.stats.prunedLinks.Add(cs.PrunedLinks)
	t.stats.lastLiveNodes.Store(uint64(cs.LiveNodes))
	t.stats.lastHorizon.Store(cs.Horizon)
	// Flight-record passes that did reclamation work (no-op passes on an
	// idle tree would only flood the ring). Phase stamp = the horizon the
	// pass pruned behind; payload = pruned links, recycled objects, live
	// nodes after the pass. Shard is -1: the tree does not know its index
	// in a sharded set.
	recycled := cs.RecycledNodes + cs.RecycledInfos + cs.PooledHeaders
	if cs.PrunedLinks > 0 || cs.GarbageNodes > 0 || recycled > 0 {
		obs.Emit(obs.EventCompact, obs.KindNone, -1, cs.Horizon,
			int64(cs.PrunedLinks), int64(recycled), int64(cs.LiveNodes))
	}
	return cs
}

// drainRetired retries the infos earlier drains left pending, pops the
// retire stack, and drains every info it can at horizon h into one fresh
// limbo batch, which it enqueues after all of its cuts.
func (t *Map[V]) drainRetired(h uint64, cs *CompactStats) {
	p := &t.pool
	b := t.newBatch()
	kept := p.pending[:0]
	for _, in := range p.pending {
		if !t.drainInfo(in, h, b, cs) {
			kept = append(kept, in)
		}
	}
	clear(p.pending[len(kept):])
	p.pending = kept
	for in := p.retired.Swap(nil); in != nil; {
		next := in.body.retireNext
		in.body.retireNext = nil // a pending info must not retain the rest of the stack
		if !t.drainInfo(in, h, b, cs) {
			p.pending = append(p.pending, in)
		}
		in = next
	}
	cs.GarbageNodes += len(b.nodes)
	t.enqueueLimbo(b)
}

// drainInfo drains one popped info into batch b if its attempt is decided
// and, for a commit, at or below the horizon; it reports whether it did.
func (t *Map[V]) drainInfo(in *info[V], h uint64, b *limboBatch[V], cs *CompactStats) bool {
	body := in.body
	switch in.state.Load() {
	case stateCommit:
		if body.seq > h {
			return false
		}
		if body.newChild.prev.Swap(nil) != nil {
			cs.PrunedLinks++
		}
		if t.pool.pooling.Load() {
			for i := 0; i < int(body.nn); i++ {
				if body.markMask&(1<<uint(i)) != 0 {
					b.nodes = append(b.nodes, body.nodes[i])
				}
			}
			// The marked nodes name in for good (a committed mark is
			// never replaced) and are poisoned when b is recycled, the
			// step that also drops the body's reference. Until then that
			// reference keeps refs above zero, so theirs go now.
			in.refs.Add(-int32(bits.OnesCount8(body.markMask)))
		}
		t.pool.liveNodes += int(body.delta)
	case stateAbort:
	default:
		return false
	}
	b.infos = append(b.infos, in)
	cs.RetiredInfos++
	return true
}

// VersionGraphSize returns the number of nodes reachable in the whole
// version graph — child pointers plus entire prev chains — from the
// root. With pruning this is O(live versions); without it, it grows with
// the total update count. Diagnostic: call at quiescence for an exact
// figure (a concurrent walk is safe but approximate).
func (t *Map[V]) VersionGraphSize() int {
	visited := make(map[*node[V]]struct{}, 256)
	var walk func(n *node[V])
	walk = func(n *node[V]) {
		for n != nil {
			if _, ok := visited[n]; ok {
				return
			}
			visited[n] = struct{}{}
			if !n.isLeaf() {
				walk(n.left.Load())
				walk(n.right.Load())
			}
			n = n.prev.Load()
		}
	}
	walk(t.root)
	return len(visited)
}
