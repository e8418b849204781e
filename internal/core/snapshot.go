package core

import (
	"runtime"
	"sync/atomic"
)

// MapSnapshot is a wait-free, immutable point-in-time view of a Map: the
// tree T_seq of the phase that was current when the snapshot was taken.
// A snapshot may be read repeatedly and concurrently, long after later
// updates have modified the tree; all its reads observe the same entries.
//
// This is the persistence pay-off the paper's title promises: because
// every node keeps a prev pointer and a phase number, T_seq remains
// reconstructible while the snapshot is live. A live snapshot pins the
// reclamation horizon (Compact cannot prune versions it may read), so
// long-lived snapshots retain memory proportional to the updates since
// they were taken; call Release when done reading to let Compact and the
// GC reclaim those versions. An unreleased snapshot is also released
// automatically when it becomes unreachable (a GC cleanup), so forgetting
// Release delays reclamation but never blocks it forever.
type MapSnapshot[V any] struct {
	t   *Map[V]
	seq uint64
	reg *snapReg
}

// Snapshot is a point-in-time view of the set.
type Snapshot = MapSnapshot[struct{}]

// snapReg carries the snapshot's reader registration. It is a separate
// allocation so the GC cleanup attached to the snapshot may reference it.
type snapReg struct {
	reg      Registration
	released atomic.Bool
}

func (g *snapReg) release() {
	if g.released.CompareAndSwap(false, true) {
		g.reg.Release()
	}
}

// Snapshot ends the current phase exactly like RangeScan does (read the
// counter, then increment it) and returns a handle on T_seq.
//
// Reads through the handle are stable: any phase-<=seq update that was
// already frozen somewhere resolves the same way for every reader (it is
// helped to completion on first encounter, and commit/abort is decided
// once, by the state-field CAS); any phase-<=seq update that had not yet
// performed its first freeze CAS is doomed to abort by the handshaking
// check, because the counter has already moved past its phase.
func (t *Map[V]) Snapshot() *MapSnapshot[V] {
	reg := t.Register()
	seq := t.clock.Open()
	t.stats.scans.Add(1)
	return t.SnapshotAt(seq, reg)
}

// SnapshotAt is the phase-explicit form of Snapshot: it wraps an
// already-opened phase in a snapshot handle, adopting reg — the reader
// registration (taken on THIS tree, before phase was opened on the
// tree's clock) that has been pinning the tree's reclamation horizon for
// that phase. The returned snapshot owns the registration: its Release
// (or the GC cleanup) performs the one release; the caller must not
// Release reg itself. SnapshotAt neither opens a phase nor counts as a
// scan in Stats — composite structures (internal/shard) open one phase
// for P trees and account for it once.
func (t *Map[V]) SnapshotAt(phase uint64, reg Registration) *MapSnapshot[V] {
	if reg.readers != &t.readers {
		panic("core: SnapshotAt given a Registration from a different tree")
	}
	g := &snapReg{reg: reg}
	s := &MapSnapshot[V]{t: t, seq: phase, reg: g}
	runtime.AddCleanup(s, func(g *snapReg) { g.release() }, g)
	return s
}

// Release withdraws the snapshot's hold on the reclamation horizon,
// allowing Compact to prune the versions only this snapshot could read.
// Release is idempotent and safe to call concurrently. Reading a
// snapshot after releasing it is a bug; reads detect it and panic with a
// message naming the misuse (see mustLive) — they are never silently
// wrong.
func (s *MapSnapshot[V]) Release() { s.reg.release() }

// Released reports whether the snapshot's registration has been
// withdrawn (by Release or the GC cleanup). A released snapshot must not
// be read.
func (s *MapSnapshot[V]) Released() bool { return s.reg.released.Load() }

// mustLive fails fast at the call site when a released snapshot is read.
// Without this check the misuse would surface — only if a Compact pass
// has already pruned past the snapshot's phase — as an opaque
// "version chain pruned below an active traversal's phase" panic deep in
// the traversal (mustReadChild); the chain cut is still the backstop for
// a Release that races mid-read.
func (s *MapSnapshot[V]) mustLive() {
	if s.reg.released.Load() {
		panic("core: read of a released Snapshot: Snapshot.Release (or the GC cleanup) already ran; call Release only after all reads are done")
	}
}

// Seq returns the phase number this snapshot captured.
func (s *MapSnapshot[V]) Seq() uint64 { return s.seq }

// Get returns the value bound to k at the snapshot's phase. Wait-free: it
// is a point range scan over T_seq.
func (s *MapSnapshot[V]) Get(k int64) (v V, found bool) {
	checkKey(k)
	s.mustLive()
	sc := scanner[V]{t: s.t, seq: s.seq, a: k, b: k}
	sc.entry = func(_ int64, x V) bool { v, found = x, true; return false }
	sc.scanInto(s.t.root)
	runtime.KeepAlive(s) // the cleanup must not release the registration mid-read
	return v, found
}

// Contains reports whether k was present at the snapshot's phase: Get
// with the value dropped.
func (s *MapSnapshot[V]) Contains(k int64) bool {
	_, found := s.Get(k)
	return found
}

// Range visits every key in [a, b] of the snapshot in ascending order;
// visit returning false stops early. Wait-free.
func (s *MapSnapshot[V]) Range(a, b int64, visit func(k int64) bool) {
	s.scan(&scanner[V]{a: a, b: b, key: visit})
}

// EntriesFunc is Range for a map: it visits every key in [a, b] of the
// snapshot with the value bound to it at the snapshot's phase. Wait-free.
func (s *MapSnapshot[V]) EntriesFunc(a, b int64, visit func(k int64, v V) bool) {
	s.scan(&scanner[V]{a: a, b: b, entry: visit})
}

func (s *MapSnapshot[V]) scan(sc *scanner[V]) {
	sc.b = min(sc.b, MaxKey)
	if sc.a > sc.b {
		return
	}
	s.mustLive()
	sc.t, sc.seq = s.t, s.seq
	sc.scanInto(s.t.root)
	runtime.KeepAlive(s) // the cleanup must not release the registration mid-read
}

// RangeScan returns every key in [a, b] of the snapshot, ascending.
func (s *MapSnapshot[V]) RangeScan(a, b int64) []int64 {
	var out []int64
	s.Range(a, b, func(k int64) bool {
		out = append(out, k)
		return true
	})
	return out
}

// Keys returns every key of the snapshot, ascending.
func (s *MapSnapshot[V]) Keys() []int64 { return s.RangeScan(MinKey, MaxKey) }

// Len returns the number of keys in the snapshot.
func (s *MapSnapshot[V]) Len() int {
	n := 0
	s.Range(MinKey, MaxKey, func(int64) bool {
		n++
		return true
	})
	return n
}
