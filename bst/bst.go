// Package bst is the public API of the PNB-BST reproduction: concurrent
// ordered sets of int64 keys with linearizable, non-blocking Insert,
// Delete and Contains and wait-free, linearizable RangeScan and
// Snapshot.
//
// The set type is ShardedMap. New returns the paper's single PNB-BST,
// which is a ShardedMap of one shard; NewSharded and NewShardedRange
// partition the keyspace across several PNB-BSTs by range boundaries for
// scale-out. The shards share one phase clock, so cross-shard scans and
// snapshots are single atomic cuts, linearizable like the single tree
// (DESIGN.md §5). Every ShardedMap also has the vector, commit-phase and
// bulk-load update paths (ApplyBatch, ApplyPhase, BulkLoad) and online
// Split/Merge. Map adds key-value bindings with a Put-replace operation.
// The baseline structures the evaluation compares against (the NB-BST,
// a lock-based tree, skip lists) are internal packages that cmd/benchbst
// and the experiments run; they are not part of this API.
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
//	s.Release()
//
// Keys may be any int64 up to MaxKey (the top two values of the key
// space are reserved sentinels); methods panic on reserved keys.
package bst

import (
	"sync"
	"time"

	"repro/internal/core"
)

// autoCompact runs compact every interval until the returned stop
// function is called (shared by ShardedMap and Map).
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

// MaxKey is the largest storable key.
const MaxKey = core.MaxKey

// MinKey is the smallest storable key.
const MinKey = core.MinKey

// Stats is a copy of a map's instrumentation counters.
type Stats = core.StatsSnapshot

// CompactStats reports one version-pruning pass; see (*ShardedMap).Compact.
type CompactStats = core.CompactStats

// New returns an empty PNB-BST: a ShardedMap of one shard covering the
// whole key space.
func New() *ShardedMap { return NewSharded(1) }
