package bst

import (
	"time"

	"repro/internal/core"
)

// Map is a persistent non-blocking BST map from int64 keys to values of
// type V — the key-value extension of the paper's set (DESIGN.md §3), run
// by the same algorithm as the set with values in the leaves. It adds a
// Put-replace operation: binding a new value to an existing key
// installs a fresh leaf whose prev pointer keeps the old value readable
// in earlier phases, so snapshots observe the value that was bound when
// they were taken.
//
// Put, Delete and Get are non-blocking; EntriesFunc, RangeCount and
// MapSnapshot reads are wait-free and linearizable. All methods are safe
// for concurrent use.
type Map[V any] struct {
	m *core.Map[V]
}

// MapEntry is one key-value pair returned by map scans.
type MapEntry[V any] struct {
	Key int64
	Val V
}

// MapSnapshot is a frozen point-in-time view of a Map.
type MapSnapshot[V any] struct {
	s *core.MapSnapshot[V]
}

// NewMap returns an empty map.
func NewMap[V any]() *Map[V] { return &Map[V]{m: core.NewMap[V]()} }

// Put binds k to v, reporting whether an existing binding was replaced.
func (m *Map[V]) Put(k int64, v V) (replaced bool) { return m.m.Put(k, v) }

// Get returns the value bound to k, if any.
func (m *Map[V]) Get(k int64) (V, bool) { return m.m.Get(k) }

// Contains reports whether k is bound.
func (m *Map[V]) Contains(k int64) bool { return m.m.Contains(k) }

// Delete unbinds k, reporting whether it was bound.
func (m *Map[V]) Delete(k int64) bool { return m.m.Delete(k) }

// Entries returns the entries with keys in [a, b], ascending by key.
// Wait-free and linearizable.
func (m *Map[V]) Entries(a, b int64) []MapEntry[V] {
	var out []MapEntry[V]
	m.m.EntriesFunc(a, b, func(k int64, v V) bool {
		out = append(out, MapEntry[V]{k, v})
		return true
	})
	return out
}

// EntriesFunc streams entries in [a, b] ascending without allocating;
// visit returning false stops early. Wait-free.
func (m *Map[V]) EntriesFunc(a, b int64, visit func(k int64, v V) bool) {
	m.m.EntriesFunc(a, b, visit)
}

// RangeCount returns the number of bound keys in [a, b]. Wait-free.
func (m *Map[V]) RangeCount(a, b int64) int { return m.m.RangeCount(a, b) }

// Keys returns all bound keys, ascending. Wait-free.
func (m *Map[V]) Keys() []int64 { return m.m.Keys() }

// Len returns the number of bound keys. Wait-free.
func (m *Map[V]) Len() int { return m.m.Len() }

// Compact prunes version memory: superseded key-value versions that no
// in-flight scan and no live MapSnapshot can still read are unlinked and
// recycled. Same semantics, safety and cost as (*ShardedMap).Compact
// (DESIGN.md §6): a pass drains the updates retired since the previous
// pass and never walks the map.
func (m *Map[V]) Compact() CompactStats { return m.m.Compact() }

// StartAutoCompact runs Compact every interval on a background goroutine
// until the returned stop function is called; see
// (*ShardedMap).StartAutoCompact. Each pass costs time proportional to
// the updates since the previous one.
func (m *Map[V]) StartAutoCompact(interval time.Duration) (stop func()) {
	return autoCompact(interval, func() { m.Compact() })
}

// Snapshot returns a frozen point-in-time view of the map. The snapshot
// pins the map's version-reclamation horizon until released.
func (m *Map[V]) Snapshot() *MapSnapshot[V] { return &MapSnapshot[V]{s: m.m.Snapshot()} }

// Release withdraws the snapshot's hold on the reclamation horizon;
// idempotent. Reading the snapshot afterwards is a bug.
func (s *MapSnapshot[V]) Release() { s.s.Release() }

// Seq returns the snapshot's phase number.
func (s *MapSnapshot[V]) Seq() uint64 { return s.s.Seq() }

// Get returns the value bound to k at the snapshot's phase.
func (s *MapSnapshot[V]) Get(k int64) (V, bool) { return s.s.Get(k) }

// Range streams the snapshot's entries in [a, b], ascending.
func (s *MapSnapshot[V]) Range(a, b int64, visit func(k int64, v V) bool) {
	s.s.EntriesFunc(a, b, visit)
}

// Len returns the number of keys bound at the snapshot's phase.
func (s *MapSnapshot[V]) Len() int { return s.s.Len() }
