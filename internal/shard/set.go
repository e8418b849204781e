package shard

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// table is one immutable generation of the set's routing state: the
// boundary slice (Router), the shard trees, and the per-shard load
// counters the rebalancer samples. A migration (Split/Merge) never
// mutates a table; it builds a replacement and swaps the Set's pointer,
// so readers resolve routes with one atomic load and no lock, ever.
type table struct {
	r     Router
	trees []*core.Tree
	loads []shardLoad
	gen   uint64 // migration generation; 0 for the construction table
}

// loadStripes spreads one shard's load counter over several cache
// lines. Padding between shards prevents false sharing, but a skewed
// workload sends every op to ONE shard, whose single counter would then
// be an invalidation storm on exactly the hot path rebalancing exists
// to fix. Striping by the key's low bits works best precisely there:
// clustered hot keys are contiguous, so consecutive keys hit distinct
// stripes.
const loadStripes = 8

// shardLoad is a striped, padded per-shard point-operation counter.
type shardLoad struct {
	stripes [loadStripes]struct {
		n atomic.Uint64
		_ [56]byte
	}
}

// add counts one point op on key k.
func (l *shardLoad) add(k int64) { l.stripes[uint64(k)%loadStripes].n.Add(1) }

// addN counts n point ops against k's stripe in one add — the amortized
// accounting ApplyBatch uses per shard group.
func (l *shardLoad) addN(k int64, n uint64) { l.stripes[uint64(k)%loadStripes].n.Add(n) }

// total sums the stripes (approximate under concurrent adds, like any
// statistics counter).
func (l *shardLoad) total() uint64 {
	var n uint64
	for i := range l.stripes {
		n += l.stripes[i].n.Load()
	}
	return n
}

// Set is a keyspace-sharded composite of PNB-BSTs. Point operations
// route to the shard owning the key and inherit that tree's
// linearizability and non-blocking progress unchanged.
//
// The trees share ONE phase clock (core.Clock), so a range scan or
// snapshot spanning shards opens a single phase and takes every shard's
// wait-free cut at that same phase — one atomic cut of the whole set,
// with the paper's linearizable-scan guarantee intact across shard
// boundaries (DESIGN.md §5.2).
//
// The shard map is not fixed: Split, Merge and AutoRebalance replace
// shards online (DESIGN.md §7). Migration swaps an immutable routing
// table behind an atomic pointer, so reads never lock; updates to a
// shard being replaced briefly yield until the swap lands. All methods
// are safe for concurrent use.
type Set struct {
	// clock is the phase clock shared by every shard (never nil).
	clock *core.Clock

	tab atomic.Pointer[table]

	// scans counts logical phase-opening read operations (scans,
	// snapshots, ordered queries) started on the set — NOT per-shard
	// phase opens, of which one cross-shard scan performs up to P.
	scans atomic.Uint64

	// migrateMu serializes migrations (Split/Merge). Operations never
	// take it; only the rebalancer and explicit Split/Merge callers do.
	migrateMu sync.Mutex

	splits atomic.Uint64
	merges atomic.Uint64

	// retiredMu guards retired, the folded-in counters of trees replaced
	// by migrations, so Stats stays cumulative across table swaps.
	retiredMu sync.Mutex
	retired   core.StatsSnapshot

	// vgMu guards the throttle for the O(graph) VersionGraphSize walks
	// ShardInfos embeds: a metrics scraper polling at 10Hz must not pay
	// ten full-graph walks a second (on a one-core box that walk alone
	// can eat most of the CPU). ShardInfos reuses vgVals while it is
	// younger than vgMaxAge and was taken over the same shard count.
	vgMu   sync.Mutex
	vgAt   time.Time
	vgVals []int
}

// New returns an empty set of p shards partitioning the full key space.
func New(p int) *Set {
	return NewRange(core.MinKey, core.MaxKey, p)
}

// NewRange returns an empty set of p shards whose boundaries split
// [lo, hi] evenly (edge shards absorb the rest of the key space), so a
// workload concentrated on [lo, hi] spreads across all p shards. All p
// trees share one phase clock, making cross-shard scans and snapshots
// single atomic cuts.
func NewRange(lo, hi int64, p int) *Set {
	r := NewRouterRange(lo, hi, p)
	s := &Set{clock: core.NewClock()}
	trees := make([]*core.Tree, r.Shards())
	for i := range trees {
		trees[i] = core.NewWithClock(s.clock)
	}
	s.tab.Store(&table{r: r, trees: trees, loads: make([]shardLoad, len(trees))})
	return s
}

// Shards returns the current shard count. It can change between calls on
// a set with an active rebalancer.
func (s *Set) Shards() int { return len(s.tab.Load().trees) }

// Router returns the set's current key-to-shard router. The returned
// value is an immutable copy of one routing generation; a migration
// replaces the set's router rather than mutating it, so the copy stays
// internally consistent but may fall behind the live set.
func (s *Set) Router() Router { return s.tab.Load().r }

// Generation returns the routing-table generation: 0 at construction,
// +1 per completed migration (split or merge).
func (s *Set) Generation() uint64 { return s.tab.Load().gen }

// Insert adds k, reporting whether it was absent. Linearizable and
// non-blocking: it is a PNB-BST insert on the owning shard, routed by
// Apply.
func (s *Set) Insert(k int64) bool {
	res, _ := s.Apply(core.BatchOp{Kind: core.BatchInsert, Key: k})
	return res
}

// Delete removes k, reporting whether it was present. Linearizable and
// non-blocking, routed by Apply.
func (s *Set) Delete(k int64) bool {
	res, _ := s.Apply(core.BatchOp{Kind: core.BatchDelete, Key: k})
	return res
}

// Apply runs one point operation on the shard owning its key and
// reports its result and deciding phase (core.Map.TryApplyOps). For an
// effective Insert or Delete the phase is the exact commit phase on the
// shared clock, comparable across every shard and every migration cut,
// which is what durability's WAL stamps records with (internal/persist).
// If a migration seals the owning shard mid-operation, the op re-routes
// through the replacement table, yielding until the swap publishes it.
//
// The op runs as a batch of one on stack arrays, so it allocates
// nothing beyond the tree's own attempt.
func (s *Set) Apply(op core.BatchOp) (res bool, phase uint64) {
	ops := [1]core.BatchOp{op}
	var r [1]bool
	var ph [1]uint64
	for {
		tab := s.tab.Load()
		i := tab.r.Of(op.Key)
		if _, ok := tab.trees[i].TryApplyOps(ops[:], r[:], ph[:]); ok {
			tab.loads[i].add(op.Key)
			return r[0], ph[0]
		}
		runtime.Gosched() // owning shard mid-migration; wait for the swap
	}
}

// AdvanceClock raises the shared phase clock to at least p. Durability
// recovery calls this before the set accepts traffic so that every new
// commit phase exceeds every phase the previous process persisted
// (core.Clock.AdvanceTo).
func (s *Set) AdvanceClock(p uint64) { s.clock.AdvanceTo(p) }

// Find reports whether k is present. Linearizable and non-blocking.
// Reads never wait on migrations: a sealed shard still answers (its last
// state is exactly the migration cut the replacement trees start from).
func (s *Set) Find(k int64) bool {
	tab := s.tab.Load()
	i := tab.r.Of(k)
	tab.loads[i].add(k)
	return tab.trees[i].Find(k)
}

// Contains is an alias for Find (the bst.Set spelling).
func (s *Set) Contains(k int64) bool { return s.Find(k) }

// ShardLoads returns the cumulative per-shard point-operation counts
// (Insert+Delete+Find) of the current routing table. Counters start at
// zero whenever a migration installs a new table, so consumers (the
// rebalancer, traces) sample deltas per generation.
func (s *Set) ShardLoads() []uint64 {
	tab := s.tab.Load()
	out := make([]uint64, len(tab.loads))
	for i := range tab.loads {
		out[i] = tab.loads[i].total()
	}
	return out
}

// ShardInfo is one shard's introspection row: its key range, routing
// generation, point-op load this generation, and the per-tree
// instrumentation gauges the Prometheus exposition serves per shard
// (the set-level Stats() folds these away across shards and
// migrations). VersionGraph is an O(live graph) walk, throttled to at
// most one walk per second across ShardInfos calls (between walks the
// previous values are served — a gauge for humans, not an oracle).
type ShardInfo struct {
	Index        int
	Lo, Hi       int64  // inclusive key range owned by the shard
	Gen          uint64 // routing-table generation the row was read from
	Load         uint64 // point ops routed to the shard in this generation
	LiveNodes    uint64 // |T_H|: tree size at the last Compact pass's horizon
	Horizon      uint64 // reclamation horizon of the last Compact pass
	VersionGraph int    // current version-graph size (nodes)
	Retries      uint64 // insert+delete+find+horizon retries, this tree's lifetime
	Helps        uint64
	Aborts       uint64 // handshake aborts
	Compactions  uint64
	PrunedLinks  uint64
	PoolNodeHits uint64
	PoolNodePuts uint64
	PoolInfoHits uint64
	PoolInfoPuts uint64
}

// ShardInfos returns one ShardInfo per current shard, all read from a
// single routing-table snapshot (consistent bounds/loads/gen even while
// a migration swaps tables; the per-tree counters are racy reads of
// live atomics, like Stats).
func (s *Set) ShardInfos() []ShardInfo {
	tab := s.tab.Load()
	vg := s.versionGraphs(tab)
	out := make([]ShardInfo, len(tab.trees))
	for i, t := range tab.trees {
		st := t.Stats()
		lo, hi := tab.r.Bounds(i)
		out[i] = ShardInfo{
			Index:        i,
			Lo:           lo,
			Hi:           hi,
			Gen:          tab.gen,
			Load:         tab.loads[i].total(),
			LiveNodes:    st.LastLiveNodes,
			Horizon:      st.LastHorizon,
			VersionGraph: vg[i],
			Retries:      st.RetriesInsert + st.RetriesDelete + st.RetriesFind + st.RetriesHorizon,
			Helps:        st.Helps,
			Aborts:       st.HandshakeAborts,
			Compactions:  st.Compactions,
			PrunedLinks:  st.PrunedLinks,
			PoolNodeHits: st.PoolNodeHits,
			PoolNodePuts: st.PoolNodePuts,
			PoolInfoHits: st.PoolInfoHits,
			PoolInfoPuts: st.PoolInfoPuts,
		}
	}
	return out
}

// vgMaxAge bounds how often ShardInfos re-walks the version graphs.
const vgMaxAge = time.Second

// versionGraphs returns one VersionGraphSize per tree of tab, walking
// the graphs at most once per vgMaxAge. A shard-count change (post
// Split/Merge table swap) invalidates the cache; the slice is replaced
// wholesale and never mutated, so serving it to concurrent callers is
// safe.
func (s *Set) versionGraphs(tab *table) []int {
	s.vgMu.Lock()
	defer s.vgMu.Unlock()
	if len(s.vgVals) == len(tab.trees) && time.Since(s.vgAt) < vgMaxAge {
		return s.vgVals
	}
	vals := make([]int, len(tab.trees))
	for i, t := range tab.trees {
		vals[i] = t.VersionGraphSize()
	}
	s.vgVals, s.vgAt = vals, time.Now()
	return vals
}

// ClockNow returns the current phase of the shared clock. Observability
// stamps drain and slow-op events with it.
func (s *Set) ClockNow() uint64 { return s.clock.Now() }

// openPhase opens one atomic cut across shards [first, last] of tab: it
// registers a reader on every covered shard — pinning each shard's
// reclamation horizon — and only then closes the current phase of the
// whole domain on the shared clock (paper lines 130-131, applied once
// for all P trees). Registering before opening keeps each published
// bound at or below the returned phase, so no shard's Compact can
// overtake the composite read (internal/epoch ordering contract); this
// function is the ONLY place that ordering is encoded — every
// shared-clock read path goes through it.
//
// After opening, the routing table is revalidated: ok=false reports that
// a migration swapped tables since tab was loaded (the registrations are
// already released; the caller re-resolves its shards against the new
// table and retries). Revalidating AFTER the phase opens is what makes
// the cut sound against migrations — if the table is still current then,
// every shard replacement that happened before this phase also happened
// before the revalidating load, and would have been seen. A shard of tab
// sealed by a still-running migration is harmless: its migration cut was
// opened before this phase, so the shard provably has no updates between
// that cut and this phase (core.Seal), and reading it frozen IS the
// atomic cut. Wait-free apart from the (rare, migration-bounded) retry:
// one registration CAS per shard, no locks.
//
// regs[i] belongs to shard first+i; the caller traverses every covered
// shard at the returned phase and then releases each registration
// exactly once (releaseAll, or by handing it to SnapshotAt, which
// adopts it).
func (s *Set) openPhase(tab *table, first, last int) (uint64, []core.Registration, bool) {
	regs := make([]core.Registration, last-first+1)
	for i := first; i <= last; i++ {
		regs[i-first] = tab.trees[i].Register()
	}
	seq := s.clock.Open()
	if s.tab.Load() != tab {
		releaseAll(regs)
		return 0, nil, false
	}
	s.scans.Add(1)
	return seq, regs, true
}

func releaseAll(regs []core.Registration) {
	for _, r := range regs {
		r.Release()
	}
}

// atomicCut is the one retry/release scaffold behind every shared-clock
// read except Snapshot (which adopts its registrations instead of
// releasing them): resolve the covered shards against the current
// table, open one phase over them (openPhase), run body at that phase,
// release. A cover returning first > last skips the read entirely (no
// phase is opened); a failed revalidation re-resolves against the new
// table.
func (s *Set) atomicCut(cover func(*table) (first, last int), body func(tab *table, seq uint64, first, last int)) {
	for {
		tab := s.tab.Load()
		first, last := cover(tab)
		if first > last {
			return
		}
		seq, regs, ok := s.openPhase(tab, first, last)
		if !ok {
			continue
		}
		defer releaseAll(regs)
		body(tab, seq, first, last)
		return
	}
}

// RangeScanFunc visits every key in [a, b] in ascending order, calling
// visit for each; visit returning false stops early.
//
// Cross-shard semantics: the scan opens ONE phase s on the shared clock
// and reconstructs T_s of every covered shard, in ascending key order —
// a single atomic cut of the whole set, linearized at the clock's
// increment exactly as the paper's single-tree scan. Wait-free, and
// immune to concurrent rebalancing (openPhase).
func (s *Set) RangeScanFunc(a, b int64, visit func(k int64) bool) {
	stopped := false
	wrapped := func(k int64) bool {
		if !visit(k) {
			stopped = true
		}
		return !stopped
	}
	s.atomicCut(
		func(tab *table) (int, int) { return tab.r.Covering(a, b) },
		func(tab *table, seq uint64, first, last int) {
			for i := first; i <= last && !stopped; i++ {
				tab.trees[i].RangeScanAtFunc(a, b, seq, wrapped)
			}
		})
}

// RangeScan returns the keys in [a, b], ascending. Per-shard results are
// disjoint and ordered by shard, so the result is their concatenation.
// Semantics as RangeScanFunc.
func (s *Set) RangeScan(a, b int64) []int64 {
	var out []int64
	s.RangeScanFunc(a, b, func(k int64) bool {
		out = append(out, k)
		return true
	})
	return out
}

// RangeCount returns the number of keys in [a, b] without allocating.
// Semantics as RangeScanFunc.
func (s *Set) RangeCount(a, b int64) int {
	n := 0
	s.atomicCut(
		func(tab *table) (int, int) { return tab.r.Covering(a, b) },
		func(tab *table, seq uint64, first, last int) {
			for i := first; i <= last; i++ {
				n += tab.trees[i].RangeCountAt(a, b, seq)
			}
		})
	return n
}

// Keys returns all keys, ascending.
func (s *Set) Keys() []int64 { return s.RangeScan(core.MinKey, core.MaxKey) }

// Len returns the number of keys (semantics as RangeScanFunc).
func (s *Set) Len() int { return s.RangeCount(core.MinKey, core.MaxKey) }

// Min returns the smallest key, if any. The probe is one atomic cut over
// all shards.
func (s *Set) Min() (int64, bool) {
	var got int64
	found := false
	s.atomicCut(
		func(tab *table) (int, int) { return 0, len(tab.trees) - 1 },
		func(tab *table, seq uint64, first, last int) {
			for _, t := range tab.trees {
				if k, ok := t.SuccAt(core.MinKey, seq); ok {
					got, found = k, true
					return
				}
			}
		})
	return got, found
}

// Max returns the largest key, if any.
func (s *Set) Max() (int64, bool) {
	var got int64
	found := false
	s.atomicCut(
		func(tab *table) (int, int) { return 0, len(tab.trees) - 1 },
		func(tab *table, seq uint64, first, last int) {
			for i := last; i >= 0; i-- {
				if k, ok := tab.trees[i].PredAt(core.MaxKey, seq); ok {
					got, found = k, true
					return
				}
			}
		})
	return got, found
}

// Succ returns the smallest key >= k, if any.
func (s *Set) Succ(k int64) (int64, bool) {
	var got int64
	found := false
	s.atomicCut(
		func(tab *table) (int, int) { return tab.r.Of(k), len(tab.trees) - 1 },
		func(tab *table, seq uint64, first, last int) {
			for i := first; i <= last; i++ {
				if succ, ok := tab.trees[i].SuccAt(k, seq); ok {
					got, found = succ, true
					return
				}
			}
		})
	return got, found
}

// Pred returns the largest key <= k, if any.
func (s *Set) Pred(k int64) (int64, bool) {
	var got int64
	found := false
	s.atomicCut(
		func(tab *table) (int, int) { return 0, tab.r.Of(k) },
		func(tab *table, seq uint64, first, last int) {
			for i := last; i >= 0; i-- {
				if pred, ok := tab.trees[i].PredAt(k, seq); ok {
					got, found = pred, true
					return
				}
			}
		})
	return got, found
}

// Snapshot returns a composite of per-shard wait-free snapshots, all
// capturing the SAME phase of the shared clock — one atomic cut of the
// whole set, frozen at the clock's increment. Reads of the returned
// Snapshot are stable: repeated reads always observe the same
// composite, even after later migrations retire the captured trees
// (retired trees are never pruned, so the cut stays reconstructible).
func (s *Set) Snapshot() *Snapshot {
	for {
		tab := s.tab.Load()
		seq, regs, ok := s.openPhase(tab, 0, len(tab.trees)-1)
		if !ok {
			continue
		}
		snaps := make([]*core.Snapshot, len(tab.trees))
		for i, t := range tab.trees {
			snaps[i] = t.SnapshotAt(seq, regs[i]) // adopts the registration
		}
		return &Snapshot{r: tab.r, snaps: snaps, seq: seq}
	}
}

// Compact prunes every live shard's version memory to that shard's own
// reclamation horizon and returns the aggregated statistics (LiveNodes,
// PrunedLinks and RetiredInfos are summed; Horizon is the minimum
// per-shard horizon). The cross-shard horizon rule (DESIGN.md §6): a
// composite Snapshot or in-flight cross-shard scan registers on every
// shard it covers BEFORE opening its phase, so each shard's horizon
// independently stays at or below that phase; per-shard pruning needs no
// further coordination even though the shards share a clock. Trees
// retired by migrations are never compacted — in-flight readers of a
// pre-migration table may still traverse any of their versions — so they
// are reclaimed whole by the GC once unreferenced.
func (s *Set) Compact() core.CompactStats {
	tab := s.tab.Load()
	var sum core.CompactStats
	for i, t := range tab.trees {
		cs := t.Compact()
		if i == 0 || cs.Horizon < sum.Horizon {
			sum.Horizon = cs.Horizon
		}
		sum.LiveNodes += cs.LiveNodes
		sum.PrunedLinks += cs.PrunedLinks
		sum.RetiredInfos += cs.RetiredInfos
		sum.GarbageNodes += cs.GarbageNodes
		sum.RecycledNodes += cs.RecycledNodes
		sum.RecycledInfos += cs.RecycledInfos
	}
	return sum
}

// VersionGraphSize returns the summed size of the current shards'
// version graphs (see core.Tree.VersionGraphSize). Diagnostic; exact
// only at quiescence.
func (s *Set) VersionGraphSize() int {
	tab := s.tab.Load()
	n := 0
	for _, t := range tab.trees {
		n += t.VersionGraphSize()
	}
	return n
}

// Stats returns the element-wise sum of the per-shard instrumentation
// counters — cumulative across migrations (counters of retired trees are
// folded in when their table is replaced) — except: Scans is the number
// of LOGICAL phase-opening read operations started on the set (one per
// cross-shard scan/snapshot, however many shards it covers), and
// LastHorizon is the minimum per-shard horizon of the current table.
// Summing the per-shard Scans counters would count one logical scan up
// to P times — the per-tree counters stay per-tree (they are zero on the
// shared-clock read path, which opens its phase at the set level).
func (s *Set) Stats() core.StatsSnapshot {
	// Capture the table and the folded counters under one lock: install
	// folds retiring trees and swaps the table while holding retiredMu,
	// so this pair is always consistent (no shard counted twice or not
	// at all mid-migration).
	s.retiredMu.Lock()
	tab := s.tab.Load()
	sum := s.retired
	s.retiredMu.Unlock()
	for i, t := range tab.trees {
		st := t.Stats()
		sum.RetriesInsert += st.RetriesInsert
		sum.RetriesDelete += st.RetriesDelete
		sum.RetriesFind += st.RetriesFind
		sum.RetriesHorizon += st.RetriesHorizon
		sum.Helps += st.Helps
		sum.HandshakeAborts += st.HandshakeAborts
		sum.Compactions += st.Compactions
		sum.PrunedLinks += st.PrunedLinks
		sum.PoolNodeHits += st.PoolNodeHits
		sum.PoolNodePuts += st.PoolNodePuts
		sum.PoolInfoHits += st.PoolInfoHits
		sum.PoolInfoPuts += st.PoolInfoPuts
		sum.LastLiveNodes += st.LastLiveNodes
		if i == 0 || st.LastHorizon < sum.LastHorizon {
			sum.LastHorizon = st.LastHorizon
		}
	}
	sum.Scans = s.scans.Load()
	return sum
}

// foldRetired accumulates the final counters of trees a migration is
// retiring, so Stats stays cumulative across table swaps. LastLiveNodes
// and LastHorizon describe current trees only and are not folded. The
// caller (install) holds retiredMu.
func (s *Set) foldRetired(trees []*core.Tree) {
	for _, t := range trees {
		st := t.Stats()
		s.retired.RetriesInsert += st.RetriesInsert
		s.retired.RetriesDelete += st.RetriesDelete
		s.retired.RetriesFind += st.RetriesFind
		s.retired.RetriesHorizon += st.RetriesHorizon
		s.retired.Helps += st.Helps
		s.retired.HandshakeAborts += st.HandshakeAborts
		s.retired.Compactions += st.Compactions
		s.retired.PrunedLinks += st.PrunedLinks
		s.retired.PoolNodeHits += st.PoolNodeHits
		s.retired.PoolNodePuts += st.PoolNodePuts
		s.retired.PoolInfoHits += st.PoolInfoHits
		s.retired.PoolInfoPuts += st.PoolInfoPuts
	}
}

// ResetStats zeroes every current shard's counters, the folded counters
// of retired shards, and the set's logical scan counter.
func (s *Set) ResetStats() {
	s.retiredMu.Lock()
	tab := s.tab.Load()
	s.retired = core.StatsSnapshot{}
	s.retiredMu.Unlock()
	s.scans.Store(0)
	for _, t := range tab.trees {
		t.ResetStats()
	}
}

// CheckInvariants validates every shard's structural invariants, that
// every stored key lies inside its shard's bounds, and that the routing
// table itself is well-formed. Quiescent use only (as
// core.Tree.CheckInvariants).
func (s *Set) CheckInvariants() error {
	tab := s.tab.Load()
	if len(tab.trees) != tab.r.Shards() || len(tab.loads) != tab.r.Shards() {
		return fmt.Errorf("shard: table has %d trees / %d load slots for %d shards",
			len(tab.trees), len(tab.loads), tab.r.Shards())
	}
	if tab.r.starts[0] != core.MinKey {
		return fmt.Errorf("shard: first boundary %d is not MinKey", tab.r.starts[0])
	}
	for i := 1; i < len(tab.r.starts); i++ {
		if tab.r.starts[i] <= tab.r.starts[i-1] {
			return fmt.Errorf("shard: boundaries not strictly ascending at %d (%d after %d)",
				i, tab.r.starts[i], tab.r.starts[i-1])
		}
	}
	for i, t := range tab.trees {
		if t.Sealed() {
			return fmt.Errorf("shard %d: live table holds a sealed tree", i)
		}
		if err := t.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		lo, hi := tab.r.Bounds(i)
		bad := int64(0)
		misrouted := false
		t.RangeScanFunc(core.MinKey, core.MaxKey, func(k int64) bool {
			if k < lo || k > hi {
				bad, misrouted = k, true
				return false
			}
			return true
		})
		if misrouted {
			return fmt.Errorf("shard %d: key %d outside owned range [%d, %d]", i, bad, lo, hi)
		}
	}
	return nil
}

// Snapshot is a composite of per-shard wait-free snapshots, one per
// shard, all carrying the same phase (Seq): one atomic cut; see
// Set.Snapshot. Reads are stable and wait-free.
type Snapshot struct {
	r        Router
	snaps    []*core.Snapshot
	seq      uint64 // the shared phase every per-shard cut captured
	released atomic.Bool
}

// Seq returns the phase captured by every per-shard cut.
func (s *Snapshot) Seq() uint64 { return s.seq }

// mustLive fails fast at the call site when a released composite is
// read; without it the misuse would surface only as an opaque
// "version chain pruned" panic deep inside a shard's traversal (or not
// at all until a Compact pass runs).
func (s *Snapshot) mustLive() {
	if s.released.Load() {
		panic("shard: read of a released composite Snapshot: Release already ran; call Release only after all reads of the snapshot are done")
	}
}

// Contains reports whether k was present in the owning shard's cut.
func (s *Snapshot) Contains(k int64) bool {
	s.mustLive()
	return s.snaps[s.r.Of(k)].Contains(k)
}

// Release withdraws the composite snapshot's hold on every shard's
// reclamation horizon (see core.Snapshot.Release). Idempotent; reading
// the snapshot afterwards is a bug, detected at the call site.
func (s *Snapshot) Release() {
	if !s.released.CompareAndSwap(false, true) {
		return
	}
	for _, snap := range s.snaps {
		snap.Release()
	}
}

// Range visits every key in [a, b] of the composite view in ascending
// order; visit returning false stops early.
func (s *Snapshot) Range(a, b int64, visit func(k int64) bool) {
	s.mustLive()
	first, last := s.r.Covering(a, b)
	stopped := false
	wrapped := func(k int64) bool {
		if !visit(k) {
			stopped = true
		}
		return !stopped
	}
	for i := first; i <= last && !stopped; i++ {
		s.snaps[i].Range(a, b, wrapped)
	}
}

// RangeScan returns every key in [a, b] of the composite view, ascending.
func (s *Snapshot) RangeScan(a, b int64) []int64 {
	var out []int64
	s.Range(a, b, func(k int64) bool {
		out = append(out, k)
		return true
	})
	return out
}

// Keys returns every key of the composite view, ascending.
func (s *Snapshot) Keys() []int64 { return s.RangeScan(core.MinKey, core.MaxKey) }

// Len returns the number of keys in the composite view.
func (s *Snapshot) Len() int {
	s.mustLive()
	n := 0
	for _, snap := range s.snaps {
		n += snap.Len()
	}
	return n
}
