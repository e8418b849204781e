// Package bst is the public API of the PNB-BST reproduction: concurrent
// sets of int64 keys with linearizable Insert, Delete, Contains and —
// for the PNB-BST — wait-free linearizable RangeScan and Snapshot.
//
// The primary type is Tree (the paper's PNB-BST). ShardedMap partitions
// the keyspace across several PNB-BSTs by fixed range boundaries for
// scale-out; the shards share one phase clock, so cross-shard scans and
// snapshots are single atomic cuts — linearizable like the single tree
// (DESIGN.md §5). Map adds key-value bindings
// with a Put-replace operation. Tree's updates are Insert and Delete;
// the vector, commit-phase and bulk-load update paths (ApplyBatch,
// ApplyPhase, BulkLoad) are ShardedMap's, and NewSharded(1) is a single
// tree that has them. Three baseline implementations of the Set
// interface are provided for comparison and benchmarking: the NB-BST the
// tree is built on, a lock-based tree, and a lock-free skip list
// (optionally with snap-collector scans).
//
// Quickstart:
//
//	t := bst.New()
//	t.Insert(42)
//	t.Insert(7)
//	keys := t.RangeScan(0, 100) // [7 42], wait-free, linearizable
//	s := t.Snapshot()           // frozen point-in-time view
//	t.Delete(7)
//	s.Contains(7)               // still true in the snapshot
//
// Keys may be any int64 up to MaxKey (the top two values of the key
// space are reserved sentinels); methods panic on reserved keys.
package bst

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/lockbst"
	"repro/internal/nbbst"
	"repro/internal/skiplist"
	"repro/internal/snapcollector"
)

// autoCompact runs compact every interval until the returned stop
// function is called (shared by Tree and ShardedMap).
func autoCompact(interval time.Duration, compact func()) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				compact()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			wg.Wait()
		})
	}
}

// MaxKey is the largest key storable in any of the sets.
const MaxKey = core.MaxKey

// MinKey is the smallest storable key.
const MinKey = core.MinKey

// Set is the common interface of all implementations. Insert, Delete and
// Contains are linearizable on every implementation. RangeScan is
// linearizable and wait-free on the PNB-BST, linearizable but blocking on
// the locked tree, almost-consistent on the snap-collector set, and
// quiescently consistent only on the NB-BST and plain skip list (see the
// constructors).
type Set interface {
	// Insert adds k, reporting whether it was absent.
	Insert(k int64) bool
	// Delete removes k, reporting whether it was present.
	Delete(k int64) bool
	// Contains reports whether k is present.
	Contains(k int64) bool
	// RangeScan returns the keys in [a, b], ascending.
	RangeScan(a, b int64) []int64
	// Len returns the number of keys.
	Len() int
}

// Tree is the paper's PNB-BST. It implements Set and additionally offers
// wait-free Snapshot, allocation-free RangeScanFunc/RangeCount, and
// instrumentation counters. Its only updates are Insert and Delete; a
// caller that needs batches, commit phases or bulk loads (the server,
// durability) uses a ShardedMap, with one shard for a single tree.
// All methods are safe for concurrent use.
type Tree struct {
	t *core.Tree
}

// Snapshot is a wait-free immutable point-in-time view of a Tree. A live
// Snapshot pins the tree's version-reclamation horizon; call Release when
// done reading it (an unreachable Snapshot is released by the GC
// eventually, but explicit Release frees version memory promptly).
type Snapshot = core.Snapshot

// Stats is a copy of a Tree's instrumentation counters.
type Stats = core.StatsSnapshot

// CompactStats reports one version-pruning pass; see (*Tree).Compact.
type CompactStats = core.CompactStats

// New returns an empty PNB-BST.
func New() *Tree { return &Tree{t: core.New()} }

// Insert adds k, reporting whether it was absent. Non-blocking.
func (t *Tree) Insert(k int64) bool { return t.t.Insert(k) }

// Delete removes k, reporting whether it was present. Non-blocking.
func (t *Tree) Delete(k int64) bool { return t.t.Delete(k) }

// Contains reports whether k is present. Non-blocking.
func (t *Tree) Contains(k int64) bool { return t.t.Find(k) }

// RangeScan returns the keys in [a, b], ascending. Wait-free and
// linearizable.
func (t *Tree) RangeScan(a, b int64) []int64 { return t.t.RangeScan(a, b) }

// RangeScanFunc streams the keys in [a, b] in ascending order to visit
// without allocating; visit returning false stops early. Wait-free.
func (t *Tree) RangeScanFunc(a, b int64, visit func(k int64) bool) {
	t.t.RangeScanFunc(a, b, visit)
}

// RangeCount returns the number of keys in [a, b] without allocating.
// Wait-free.
func (t *Tree) RangeCount(a, b int64) int { return t.t.RangeCount(a, b) }

// Keys returns all keys, ascending. Wait-free.
func (t *Tree) Keys() []int64 { return t.t.Keys() }

// Len returns the number of keys. Wait-free.
func (t *Tree) Len() int { return t.t.Len() }

// Min returns the smallest key in the set, if any. Wait-free.
func (t *Tree) Min() (int64, bool) { return t.t.Min() }

// Max returns the largest key in the set, if any. Wait-free.
func (t *Tree) Max() (int64, bool) { return t.t.Max() }

// Succ returns the smallest key >= k, if any. Wait-free.
func (t *Tree) Succ(k int64) (int64, bool) { return t.t.Succ(k) }

// Pred returns the largest key <= k, if any. Wait-free.
func (t *Tree) Pred(k int64) (int64, bool) { return t.t.Pred(k) }

// Snapshot returns a frozen point-in-time view supporting wait-free
// Contains, Range, RangeScan, Keys and Len. The snapshot stays valid (and
// constant) regardless of later updates to the tree.
func (t *Tree) Snapshot() *Snapshot { return t.t.Snapshot() }

// Compact prunes version memory: superseded node versions that no
// in-flight RangeScan and no live Snapshot can still read are unlinked
// from the tree's prev chains, making them collectible by the garbage
// collector. Without compaction the tree retains every version ever
// created, so heap grows with the total update count; with periodic
// compaction steady-state memory is proportional to the live set plus
// the versions pinned by open snapshots. A pass drains the updates
// retired since the previous pass; it never walks the tree. Safe
// concurrently with any mix of operations; scans running during a
// Compact stay wait-free and linearizable. See DESIGN.md §6.
func (t *Tree) Compact() CompactStats { return t.t.Compact() }

// StartAutoCompact runs Compact every interval on a background goroutine
// until the returned stop function is called. Typical intervals are
// hundreds of milliseconds to seconds: each pass costs time proportional
// to the updates since the previous pass (an idle tree's pass is O(1)),
// so the interval trades pass overhead against how long garbage waits; a
// non-positive interval defaults to one second. The stop function is
// idempotent and waits for an in-flight pass to finish.
func (t *Tree) StartAutoCompact(interval time.Duration) (stop func()) {
	return autoCompact(interval, func() { t.Compact() })
}

// SetPooling enables or disables post-horizon node/info recycling
// (DESIGN.md §10). It defaults to on: Compact feeds version memory it
// proves unreachable back to per-tree pools instead of the GC, cutting
// steady-state allocs/op on the update path. The off position exists for
// the E12 ablation and for tests that need deterministic allocation
// counts; turning it off reverts cut versions to ordinary GC garbage.
func (t *Tree) SetPooling(on bool) { t.t.SetPooling(on) }

// PoolingEnabled reports whether post-horizon recycling is on.
func (t *Tree) PoolingEnabled() bool { return t.t.PoolingEnabled() }

// Stats returns the tree's instrumentation counters (retries, helps,
// handshake aborts, phases opened, compaction progress, pool traffic).
func (t *Tree) Stats() Stats { return t.t.Stats() }

// ResetStats zeroes the instrumentation counters.
func (t *Tree) ResetStats() { t.t.ResetStats() }

// --- Baselines -----------------------------------------------------------

// nbSet adapts the NB-BST baseline to Set. Its RangeScan is only
// quiescently consistent (NB-BST is the paper's no-range-query baseline).
type nbSet struct{ t *nbbst.Tree }

func (s nbSet) Insert(k int64) bool          { return s.t.Insert(k) }
func (s nbSet) Delete(k int64) bool          { return s.t.Delete(k) }
func (s nbSet) Contains(k int64) bool        { return s.t.Find(k) }
func (s nbSet) RangeScan(a, b int64) []int64 { return s.t.RangeScanUnsafe(a, b) }
func (s nbSet) Len() int                     { return s.t.Len() }

// NewNonBlockingBaseline returns the NB-BST of Ellen et al. (PODC 2010),
// the structure PNB-BST extends. Insert/Delete/Contains are linearizable
// and non-blocking; RangeScan is a best-effort traversal that is NOT
// linearizable under concurrent updates.
func NewNonBlockingBaseline() Set { return nbSet{t: nbbst.New()} }

// lockSet adapts the lock-based tree to Set.
type lockSet struct{ t *lockbst.Tree }

func (s lockSet) Insert(k int64) bool          { return s.t.Insert(k) }
func (s lockSet) Delete(k int64) bool          { return s.t.Delete(k) }
func (s lockSet) Contains(k int64) bool        { return s.t.Find(k) }
func (s lockSet) RangeScan(a, b int64) []int64 { return s.t.RangeScan(a, b) }
func (s lockSet) Len() int                     { return s.t.Len() }

// NewLocked returns a readers-writer-locked leaf-oriented BST: every
// operation is linearizable, but scans block updates and vice versa.
func NewLocked() Set { return lockSet{t: lockbst.New()} }

// slSet adapts the plain skip list to Set.
type slSet struct{ l *skiplist.List }

func (s slSet) Insert(k int64) bool          { return s.l.Insert(k) }
func (s slSet) Delete(k int64) bool          { return s.l.Delete(k) }
func (s slSet) Contains(k int64) bool        { return s.l.Find(k) }
func (s slSet) RangeScan(a, b int64) []int64 { return s.l.RangeScanUnsafe(a, b) }
func (s slSet) Len() int                     { return s.l.Len() }

// NewSkipList returns a lock-free skip list set. Insert/Delete/Contains
// are linearizable and non-blocking; RangeScan is a best-effort
// bottom-level traversal that is NOT linearizable under concurrency.
func NewSkipList() Set { return slSet{l: skiplist.New()} }

// NewSnapCollector returns a skip list whose RangeScan uses the
// Petrank–Timnat snap-collector protocol: non-blocking (but not
// wait-free) nearly-consistent scans, the related-work comparator for
// the PNB-BST's RangeScan.
func NewSnapCollector() Set { return snapcollector.New() }
