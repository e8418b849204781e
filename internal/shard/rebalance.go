package shard

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// Online shard rebalancing (DESIGN.md §7). A fixed range partition is an
// open door for skew: a zipfian workload concentrates nearly all traffic
// on one shard and the set degrades to a single tree. Split and Merge
// change the partition while the set serves traffic, and Rebalancer /
// AutoRebalance drive them from decayed per-shard load measurements.
//
// The migration protocol reuses the machinery the paper already pays
// for. To replace shards [first, last]:
//
//  1. register a reader on each victim tree (pinning its horizon),
//  2. Seal each victim (core.Seal: no update can ever commit to it at a
//     phase above the next phase opened on the shared clock),
//  3. open ONE phase on the shared clock — the migration cut; this is
//     the migration's linearization point,
//  4. snapshot each victim at the cut and bulk-build the replacement
//     trees from the snapshot iterators (core.BuildFromSorted — balanced,
//     CAS-free, phase-0 nodes visible to every reader),
//  5. swap the routing table: one atomic pointer store of a fresh
//     immutable table.
//
// Readers never block: a reader that resolved the old table keeps
// traversing the old trees, which are frozen at exactly the cut state
// the new trees start from (openPhase documents why that composite stays
// one atomic cut). Updates to a sealed shard fail their per-attempt seal
// check, yield, and re-route once the swap lands; updates anywhere else
// never notice. Migrations are serialized by migrateMu and are invisible
// to the abstract set state — step 3 changes which trees hold the keys,
// never which keys are held.

// ErrSplitTooSmall reports a split of a shard that holds fewer than two
// keys, which has no median to divide at.
var ErrSplitTooSmall = errors.New("shard: shard holds fewer than two keys; nothing to split")

// errStaleTable reports a migration whose shard index was chosen
// against a routing table that has since been replaced — the index may
// now name a different shard, so the migration is refused (Rebalancer
// re-samples on its next tick).
var errStaleTable = errors.New("shard: routing table changed; re-resolve the shard index")

// Migrations returns how many splits and merges have completed.
func (s *Set) Migrations() (splits, merges uint64) {
	return s.splits.Load(), s.merges.Load()
}

// Split divides shard i in two at the median key of its current
// contents, atomically at one phase of the shared clock. On return the
// set has one more shard and identical contents. It fails with
// ErrSplitTooSmall when the shard holds fewer than two keys.
func (s *Set) Split(i int) error {
	return s.splitTable(s.tab.Load(), i)
}

// splitTable splits shard i OF tab, refusing with errStaleTable if tab
// is no longer current once the migration lock is held — the guard that
// keeps an index chosen against one routing generation from being
// reinterpreted against a newer one (Rebalancer.Tick decides against
// the table it sampled loads from).
func (s *Set) splitTable(tab *table, i int) error {
	s.migrateMu.Lock()
	defer s.migrateMu.Unlock()
	return s.splitLocked(tab, i)
}

// Merge fuses shards i and i+1 into one, atomically at one phase of the
// shared clock. On return the set has one fewer shard and identical
// contents.
func (s *Set) Merge(i int) error {
	return s.mergeTable(s.tab.Load(), i)
}

// mergeTable is splitTable's counterpart for Merge.
func (s *Set) mergeTable(tab *table, i int) error {
	s.migrateMu.Lock()
	defer s.migrateMu.Unlock()
	return s.mergeLocked(tab, i)
}

// cutShards seals shards [first, last] of tab and returns their
// snapshots at one shared migration cut, plus the cut phase itself.
// Order is load-bearing three ways: registrations precede the phase open
// (epoch ordering — no shard's horizon may overtake the cut while the
// migration reads it), seals precede the phase open (core.Seal — no
// update may commit to a victim above the cut), and the phase open
// precedes the snapshot reads (they traverse T_cut). Caller holds
// migrateMu and releases the snapshots.
func (s *Set) cutShards(tab *table, first, last int) ([]*core.Snapshot, uint64) {
	regs := make([]core.Registration, last-first+1)
	for i := first; i <= last; i++ {
		regs[i-first] = tab.trees[i].Register()
	}
	for i := first; i <= last; i++ {
		tab.trees[i].Seal()
	}
	cut := s.clock.Open()
	snaps := make([]*core.Snapshot, last-first+1)
	for i := first; i <= last; i++ {
		snaps[i-first] = tab.trees[i].SnapshotAt(cut, regs[i-first]) // adopts the registration
	}
	return snaps, cut
}

// install publishes a new routing table that replaces shards
// [first, last] of tab with the given trees and boundary starts,
// folding the victims' counters into the cumulative stats. The fold and
// the table swap happen under retiredMu so that Stats — which captures
// the table and the folded counters under the same lock — never sees
// the victims both in the table and in the fold (double count) or in
// neither (undercount).
func (s *Set) install(tab *table, first, last int, starts []int64, trees []*core.Tree) {
	nt := &table{
		r:   Router{starts: starts},
		gen: tab.gen + 1,
		trees: append(append(append(make([]*core.Tree, 0, len(tab.trees)-(last-first+1)+len(trees)),
			tab.trees[:first]...), trees...), tab.trees[last+1:]...),
	}
	nt.loads = make([]shardLoad, len(nt.trees))
	s.retiredMu.Lock()
	defer s.retiredMu.Unlock()
	s.foldRetired(tab.trees[first : last+1])
	s.tab.Store(nt)
}

func (s *Set) splitLocked(tab *table, i int) error {
	if tab != s.tab.Load() {
		return errStaleTable
	}
	if i < 0 || i >= len(tab.trees) {
		return fmt.Errorf("shard: split index %d outside [0, %d)", i, len(tab.trees))
	}
	if tab.trees[i].Len() < 2 {
		return ErrSplitTooSmall // cheap pre-check before sealing anything
	}
	snaps, cut := s.cutShards(tab, i, i)
	snap := snaps[0]
	defer snap.Release()
	keys := snap.RangeScan(core.MinKey, core.MaxKey)
	if len(keys) < 2 {
		// Deletes raced the pre-check below two keys. The victim is
		// already sealed, so finish with a no-op migration: same
		// boundaries, one rebuilt (unsealed) tree.
		re, err := core.BuildFromSortedKeys(s.clock, keys)
		if err != nil {
			panic(fmt.Sprintf("shard: rebuilding snapshot keys: %v", err))
		}
		s.install(tab, i, i, tab.r.starts, []*core.Tree{re})
		return ErrSplitTooSmall
	}
	mid := keys[len(keys)/2] // > keys[0] >= the shard's lower bound
	left, err := core.BuildFromSortedKeys(s.clock, keys[:len(keys)/2])
	if err != nil {
		panic(fmt.Sprintf("shard: building left split: %v", err))
	}
	right, err := core.BuildFromSortedKeys(s.clock, keys[len(keys)/2:])
	if err != nil {
		panic(fmt.Sprintf("shard: building right split: %v", err))
	}
	starts := make([]int64, 0, len(tab.r.starts)+1)
	starts = append(starts, tab.r.starts[:i+1]...)
	starts = append(starts, mid)
	starts = append(starts, tab.r.starts[i+1:]...)
	s.install(tab, i, i, starts, []*core.Tree{left, right})
	s.splits.Add(1)
	// Flight-record at the migration's linearization point: the cut is
	// the exact phase readers switch from T_old to the rebuilt shards.
	obs.Emit(obs.EventMigration, obs.KindSplit, int32(i), cut,
		int64(len(keys)), int64(len(tab.trees)+1), int64(tab.gen+1))
	return nil
}

func (s *Set) mergeLocked(tab *table, i int) error {
	if tab != s.tab.Load() {
		return errStaleTable
	}
	if i < 0 || i+1 >= len(tab.trees) {
		return fmt.Errorf("shard: merge index %d outside [0, %d)", i, len(tab.trees)-1)
	}
	snaps, cut := s.cutShards(tab, i, i+1)
	defer snaps[0].Release()
	defer snaps[1].Release()
	// Shards hold disjoint ascending ranges, so streaming the two
	// snapshot iterators back to back is the sorted key sequence.
	n := snaps[0].Len() + snaps[1].Len()
	it, which := snaps[0].Iter(core.MinKey, core.MaxKey), 0
	merged, err := core.BuildFromSorted(s.clock, n, func() (int64, bool) {
		for {
			if it.Next() {
				return it.Key(), true
			}
			if which == 1 {
				return 0, false
			}
			it, which = snaps[1].Iter(core.MinKey, core.MaxKey), 1
		}
	})
	if err != nil {
		panic(fmt.Sprintf("shard: building merged shard: %v", err))
	}
	starts := make([]int64, 0, len(tab.r.starts)-1)
	starts = append(starts, tab.r.starts[:i+1]...)
	starts = append(starts, tab.r.starts[i+2:]...)
	s.install(tab, i, i+1, starts, []*core.Tree{merged})
	s.merges.Add(1)
	obs.Emit(obs.EventMigration, obs.KindMerge, int32(i), cut,
		int64(n), int64(len(tab.trees)-1), int64(tab.gen+1))
	return nil
}

// RebalanceConfig tunes the load-driven rebalancer. The zero value gets
// sensible defaults from each field's doc.
type RebalanceConfig struct {
	// Interval is AutoRebalance's tick period (default 25ms). Each tick
	// samples per-shard load deltas and performs at most one migration.
	Interval time.Duration
	// MaxShards caps splitting (default 64), MinShards floors merging
	// (default 1).
	MaxShards, MinShards int
	// SplitFactor splits the hottest shard when its decayed load exceeds
	// SplitFactor × the mean shard load (default 1.5). A 1-shard set
	// always qualifies: one shard cannot be balanced, splitting is the
	// only probe.
	SplitFactor float64
	// MergeFactor merges the coldest adjacent pair when their combined
	// decayed load is below MergeFactor × the mean (default 0.5). Keeping
	// MergeFactor well under SplitFactor is the hysteresis that prevents
	// split/merge flapping.
	MergeFactor float64
	// MinTickOps ignores ticks whose decayed total load is below this
	// (default 256): an idle set is left alone.
	MinTickOps uint64
}

func (c *RebalanceConfig) setDefaults() {
	if c.Interval <= 0 {
		c.Interval = 25 * time.Millisecond
	}
	if c.MaxShards <= 0 {
		c.MaxShards = 64
	}
	if c.MinShards <= 0 {
		c.MinShards = 1
	}
	if c.SplitFactor <= 0 {
		c.SplitFactor = 1.5
	}
	if c.MergeFactor <= 0 {
		c.MergeFactor = 0.5
	}
	if c.MinTickOps == 0 {
		c.MinTickOps = 256
	}
}

// Rebalancer decides splits and merges from decayed per-shard load. It
// is driven by Tick — explicitly in tests, periodically by
// AutoRebalance. Not safe for concurrent use of the same Rebalancer;
// the migrations it triggers are safe against everything else.
type Rebalancer struct {
	s   *Set
	cfg RebalanceConfig

	lastTab *table
	prev    []uint64  // counter sample at the previous tick
	ewma    []float64 // decayed per-shard ops/tick
}

// NewRebalancer returns a rebalancer for s.
func NewRebalancer(s *Set, cfg RebalanceConfig) *Rebalancer {
	cfg.setDefaults()
	return &Rebalancer{s: s, cfg: cfg}
}

// Tick samples per-shard load and performs at most one migration,
// returning a description of what it did ("" for none). The first tick
// after any table change (including the rebalancer's own migrations)
// only observes: load counters restart at zero with each table, so a
// fresh baseline is needed before deltas mean anything — which also
// rate-limits rebalancing to at most one migration per two ticks.
func (r *Rebalancer) Tick() string {
	tab := r.s.tab.Load()
	cur := make([]uint64, len(tab.loads))
	for i := range tab.loads {
		cur[i] = tab.loads[i].total()
	}
	if tab != r.lastTab {
		r.lastTab, r.prev = tab, cur
		r.ewma = make([]float64, len(cur))
		return ""
	}
	total := 0.0
	for i := range cur {
		r.ewma[i] = (r.ewma[i] + float64(cur[i]-r.prev[i])) / 2
		total += r.ewma[i]
	}
	r.prev = cur
	p := len(cur)
	if total < float64(r.cfg.MinTickOps) {
		return ""
	}
	mean := total / float64(p)
	hot := 0
	for i := range r.ewma {
		if r.ewma[i] > r.ewma[hot] {
			hot = i
		}
	}
	// Indexes were chosen against tab; splitTable/mergeTable refuse with
	// errStaleTable if a racing manual Split/Merge replaced it since, so
	// the migration can never hit a shard other than the one measured.
	if p < r.cfg.MaxShards && (p == 1 || r.ewma[hot] > r.cfg.SplitFactor*mean) {
		if err := r.s.splitTable(tab, hot); err != nil {
			return "" // too small to split, or the table moved; re-sample next tick
		}
		return fmt.Sprintf("split shard %d/%d", hot, p)
	}
	if p > r.cfg.MinShards {
		cold, coldLoad := -1, 0.0
		for i := 0; i+1 < p; i++ {
			if sum := r.ewma[i] + r.ewma[i+1]; cold < 0 || sum < coldLoad {
				cold, coldLoad = i, sum
			}
		}
		if cold >= 0 && coldLoad < r.cfg.MergeFactor*mean {
			if err := r.s.mergeTable(tab, cold); err != nil {
				return ""
			}
			return fmt.Sprintf("merge shards %d+%d/%d", cold, cold+1, p)
		}
	}
	return ""
}

// AutoRebalance starts a background goroutine that Ticks a Rebalancer
// every cfg.Interval until the returned stop function is called (stop is
// idempotent and waits for the goroutine to exit, so no migration is in
// flight after it returns).
func (s *Set) AutoRebalance(cfg RebalanceConfig) (stop func()) {
	r := NewRebalancer(s, cfg)
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(r.cfg.Interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				r.Tick()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}
}
