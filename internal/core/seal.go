package core

// Sealing. Online shard rebalancing (internal/shard) retires a tree by
// copying a single-phase snapshot of it into freshly built replacements
// and atomically re-routing. The copy is only correct if no update can
// commit to the retired tree at a phase ABOVE the snapshot's cut — such
// an update would exist in the old tree (where old-phase readers still
// look) but not in the replacements (where everyone else looks), and the
// two views could tear. Seal closes that window.
//
// The migration's order is: Seal() each tree being replaced, THEN open
// the cut phase on the (shared) clock, then read the snapshot at the cut.
// Updates cooperate by re-checking the seal on every attempt, AFTER
// reading the attempt's phase (TryApplyOps, the one update loop):
//
//	updater:    seq := clock.Now(); if sealed { bail } ; ... attempt at seq
//	migration:  sealed.Store(true) ; cut := clock.Open()
//
// With Go's sequentially consistent atomics, an updater whose seal check
// read false ordered that load before the migration's store, hence before
// the migration's clock read — and seq was read even earlier. The clock
// is monotone, so seq <= cut: the attempt either commits at a phase the
// snapshot cut includes (the cut traversal helps it to a decision, and
// both sides resolve it identically) or aborts. An updater that reads
// true bails out without side effects and re-routes. Either way no
// update is ever stranded above the cut.
//
// Reads need no check: Find, scans and snapshots of a sealed tree stay
// correct and wait-free — the tree simply stops changing (its last state
// is the cut), which is exactly what in-flight readers holding the old
// routing table expect.

// Seal permanently retires the tree from updates: every TryApplyOps
// update that has not yet passed its per-attempt seal check stops the
// call with ok=false, and every update that does commit has a phase at
// or below the next phase opened on the tree's clock (see the ordering
// argument above). Sealing is idempotent and irreversible; reads are
// unaffected.
//
// Callers (shard migration) must Seal BEFORE opening the snapshot-cut
// phase on the clock the tree shares.
func (t *Map[V]) Seal() { t.sealed.Store(true) }

// Sealed reports whether the tree has been retired by Seal.
func (t *Map[V]) Sealed() bool { return t.sealed.Load() }
