package core

import "repro/internal/epoch"

// Reader registration and the reclamation horizon.
//
// The PNB-BST keeps every superseded version reachable through prev
// pointers so that a scan of phase s can reconstruct T_s at any later
// time. Unbounded retention is the price; the horizon bounds it. Every
// traversal that owns a phase for longer than one counter read — a
// RangeScan while it runs, a Snapshot until it is released — registers a
// conservative lower bound on that phase in an epoch.Table before
// acquiring it. The horizon is then
//
//	H = min(counter, min over registered bounds)
//
// and the pruner (prune.go) may cut the prev pointer of any node whose
// phase is <= H: a reader reaches a node *behind* x in a version chain
// only when its phase is < x.seq (ReadChild stops at the first node with
// seq <= phase), and no registered or future reader can hold a phase
// below H. See the epoch package for the ordering argument that H never
// overtakes an active reader.

// Registration is an exported reader-registration handle, for callers
// that coordinate one phase across several trees sharing a Clock
// (internal/shard): Register on every covered tree FIRST, then open the
// phase with Clock.Open, then traverse each tree at that phase
// (RangeScanAtFunc, SnapshotAt, PredAt), then Release every handle. The
// registration order guarantees each tree's published bound is at most
// the opened phase, so no tree's reclamation horizon can overtake the
// composite read while it runs.
type Registration struct {
	readers *epoch.Table // the registering tree's table
	r       epoch.Reader
}

// Register publishes a lower bound on any phase subsequently opened on
// the tree's clock and returns the handle. Release it exactly once. The
// caller MUST read the clock after Register returns and use that (or a
// later) value as its traversal phase.
func (t *Map[V]) Register() Registration {
	return Registration{readers: &t.readers, r: t.readers.Register(t.clock.Now())}
}

// Release withdraws the registration. Must be called exactly once per
// handle (SnapshotAt adopts the handle, and Snapshot.Release then owns
// the release).
func (g Registration) Release() { g.readers.Release(g.r) }

// Horizon returns the reclamation horizon: the minimum phase any active
// or future reader may traverse. Versions wholly behind a phase-<=H node
// are unreachable and may be pruned. With no registered readers the
// horizon is the clock's current phase. With a shared clock the ceiling
// is the shared counter, but the registered bounds are still per-tree, so
// each tree of a phase domain keeps its own horizon.
func (t *Map[V]) Horizon() uint64 {
	return t.readers.Min(t.clock.Now())
}
