package bst

import (
	"time"

	"repro/internal/shard"
)

// ShardedMap is a keyspace-sharded ordered map of int64 keys: P
// independent PNB-BSTs behind fixed range boundaries, the first
// scale-out layer over the paper's single tree (DESIGN.md §5). Like the
// paper's Tree it stores keys only (it implements Set); a sharded
// counterpart of the value-carrying Map[V] is a planned step on the
// same sharding axis.
//
// Point operations (Insert, Delete, Contains) route to the shard owning
// the key and keep the PNB-BST's guarantees unchanged — linearizable and
// non-blocking — because two operations on the same key always meet in
// the same tree. Sharding removes the single tree's shared phase counter
// and root from the path of unrelated keys, so disjoint-key workloads
// scale with P.
//
// RangeScan and Snapshot are wait-free and LINEARIZABLE across shards:
// all P trees share one phase clock, so a multi-shard scan or snapshot
// opens a single phase and takes every shard's wait-free cut at that
// same phase, one atomic cut of the whole map, linearized at the clock
// increment exactly like the paper's single-tree scan (DESIGN.md §5.2). The per-shard results concatenate in key order
// (shards hold disjoint ordered ranges), so no merging is needed.
//
// ShardedMap implements Set. All methods are safe for concurrent use.
type ShardedMap struct {
	s *shard.Set
}

// ShardedSnapshot is a frozen composite of per-shard snapshots; see
// (*ShardedMap).Snapshot.
type ShardedSnapshot = shard.Snapshot

// RebalanceConfig tunes the online shard rebalancer; the zero value gets
// the documented defaults. See shard.RebalanceConfig.
type RebalanceConfig = shard.RebalanceConfig

// ErrSplitTooSmall reports a Split of a shard holding fewer than two
// keys; re-exported for errors.Is.
var ErrSplitTooSmall = shard.ErrSplitTooSmall

// NewSharded returns an empty map of p shards whose boundaries split the
// full key space [MinKey, MaxKey] evenly.
func NewSharded(p int) *ShardedMap {
	return &ShardedMap{s: shard.New(p)}
}

// NewShardedRange returns an empty map of p shards whose boundaries
// split [lo, hi] evenly; the edge shards absorb the rest of the key
// space. Use this when the workload concentrates on a known interval so
// that all p shards share its load.
func NewShardedRange(lo, hi int64, p int) *ShardedMap {
	return &ShardedMap{s: shard.NewRange(lo, hi, p)}
}

// Shards returns the current shard count; it changes over time on a map
// with an active rebalancer.
func (m *ShardedMap) Shards() int { return m.s.Shards() }

// Split divides shard i in two at the median key of its contents,
// atomically at one phase of the shared clock: no operation — not even
// a scan already in flight across the boundary — can observe a torn
// state (DESIGN.md §7). Fails with ErrSplitTooSmall on shards holding
// fewer than two keys.
func (m *ShardedMap) Split(i int) error { return m.s.Split(i) }

// Merge fuses shards i and i+1 into one, with Split's atomicity.
func (m *ShardedMap) Merge(i int) error { return m.s.Merge(i) }

// StartAutoRebalance runs a load-driven rebalancer on a background
// goroutine: every cfg.Interval it samples per-shard load and splits the
// hottest shard or merges the coldest adjacent pair when the imbalance
// crosses cfg's thresholds. It returns a stop function (idempotent;
// returns after the rebalancer has fully quiesced).
func (m *ShardedMap) StartAutoRebalance(cfg RebalanceConfig) (stop func()) {
	return m.s.AutoRebalance(cfg)
}

// Migrations reports how many shard splits and merges have completed.
func (m *ShardedMap) Migrations() (splits, merges uint64) { return m.s.Migrations() }

// ShardLoads returns the cumulative per-shard point-operation counts of
// the current routing generation (they restart at zero on each
// migration) — the signal the rebalancer acts on.
func (m *ShardedMap) ShardLoads() []uint64 { return m.s.ShardLoads() }

// ShardInfo is one shard's introspection row (bounds, load, per-tree
// contention and reclamation gauges). See shard.ShardInfo.
type ShardInfo = shard.ShardInfo

// ShardInfos returns one introspection row per current shard, all read
// from a single routing-table snapshot. The metrics endpoint serves
// these as per-shard Prometheus gauges.
func (m *ShardedMap) ShardInfos() []ShardInfo { return m.s.ShardInfos() }

// ClockNow returns the current phase of the shared clock. ok is always
// true: every ShardedMap has the clock. The pair stays because code
// outside this module names the signature (the benchmark's traced store
// interface, bench/trace.go).
func (m *ShardedMap) ClockNow() (phase uint64, ok bool) { return m.s.ClockNow(), true }

// ShardOf returns the index of the shard owning key k.
func (m *ShardedMap) ShardOf(k int64) int { return m.s.Router().Of(k) }

// ShardBounds returns the inclusive key range owned by shard i.
func (m *ShardedMap) ShardBounds(i int) (lo, hi int64) { return m.s.Router().Bounds(i) }

// Insert adds k, reporting whether it was absent. Non-blocking.
func (m *ShardedMap) Insert(k int64) bool { return m.s.Insert(k) }

// Delete removes k, reporting whether it was present. Non-blocking.
func (m *ShardedMap) Delete(k int64) bool { return m.s.Delete(k) }

// Contains reports whether k is present. Non-blocking.
func (m *ShardedMap) Contains(k int64) bool { return m.s.Find(k) }

// ApplyPhase runs one point operation (Insert, Delete or Contains) and
// reports its result and the phase it was decided at on the shared
// clock; for an effective Insert or Delete that is the commit phase.
// Phases order updates against checkpoint cuts, which is what the
// durability layer's WAL stamps records with (internal/persist).
func (m *ShardedMap) ApplyPhase(op BatchOp) (res bool, phase uint64) { return m.s.Apply(op) }

// AdvanceClock raises the shared phase clock to at least p. Durability
// recovery calls this before serving so that post-recovery commit phases
// exceed every phase the previous process persisted.
func (m *ShardedMap) AdvanceClock(p uint64) { m.s.AdvanceClock(p) }

// RangeScan returns the keys in [a, b], ascending. Wait-free and one
// atomic cut across all covered shards (see the type comment).
func (m *ShardedMap) RangeScan(a, b int64) []int64 { return m.s.RangeScan(a, b) }

// RangeScanFunc streams the keys in [a, b] in ascending order to visit
// without allocating; visit returning false stops early (including
// across shard boundaries). Wait-free.
func (m *ShardedMap) RangeScanFunc(a, b int64, visit func(k int64) bool) {
	m.s.RangeScanFunc(a, b, visit)
}

// RangeCount returns the number of keys in [a, b] without allocating.
func (m *ShardedMap) RangeCount(a, b int64) int { return m.s.RangeCount(a, b) }

// Keys returns all keys, ascending.
func (m *ShardedMap) Keys() []int64 { return m.s.Keys() }

// Len returns the number of keys.
func (m *ShardedMap) Len() int { return m.s.Len() }

// Min returns the smallest key, if any.
func (m *ShardedMap) Min() (int64, bool) { return m.s.Min() }

// Max returns the largest key, if any.
func (m *ShardedMap) Max() (int64, bool) { return m.s.Max() }

// Succ returns the smallest key >= k, if any (crossing shard boundaries
// as needed).
func (m *ShardedMap) Succ(k int64) (int64, bool) { return m.s.Succ(k) }

// Pred returns the largest key <= k, if any.
func (m *ShardedMap) Pred(k int64) (int64, bool) { return m.s.Pred(k) }

// Snapshot returns a frozen composite view of all shards: ONE atomic
// cut, every shard's wait-free snapshot capturing the same phase of the
// shared clock. Reads of the result are stable and wait-free; call
// Release when done reading (reading after Release is a bug, detected at
// the call site).
func (m *ShardedMap) Snapshot() *ShardedSnapshot { return m.s.Snapshot() }

// Compact prunes every shard's version memory to that shard's own
// reclamation horizon (horizons stay per-shard even under the shared
// clock: a composite Snapshot or in-flight cross-shard scan registers on
// every shard it covers before opening its phase, pinning each horizon
// separately — DESIGN.md §6). LiveNodes and PrunedLinks are summed over
// shards. Safe concurrently with any mix of operations.
func (m *ShardedMap) Compact() CompactStats { return m.s.Compact() }

// StartAutoCompact runs Compact every interval on a background goroutine
// until the returned stop function is called; see (*Tree).StartAutoCompact.
func (m *ShardedMap) StartAutoCompact(interval time.Duration) (stop func()) {
	return autoCompact(interval, func() { m.Compact() })
}

// VersionGraphSize walks every shard's version lists and returns the
// total reachable version-record count — the memory Compact exists to
// bound. Diagnostic; O(total versions) and quiescent-use only, like
// CheckInvariants.
func (m *ShardedMap) VersionGraphSize() int { return m.s.VersionGraphSize() }

// Stats returns the element-wise sum of per-shard instrumentation
// counters, except Scans, which counts logical phase-opening reads on
// the map (a scan covering P shards counts once, not P times).
func (m *ShardedMap) Stats() Stats { return m.s.Stats() }

// ResetStats zeroes every shard's counters.
func (m *ShardedMap) ResetStats() { m.s.ResetStats() }

// CheckInvariants validates per-shard structure and key ownership;
// quiescent use only.
func (m *ShardedMap) CheckInvariants() error { return m.s.CheckInvariants() }

var _ Set = (*ShardedMap)(nil)
