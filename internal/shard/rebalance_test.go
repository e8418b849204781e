package shard

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

func keysOf(s *Set) []int64 { return s.Keys() }

// TestSplitPreservesContents: a split adds a boundary at the median,
// preserves every key, and leaves a structurally valid set.
func TestSplitPreservesContents(t *testing.T) {
	s := NewRange(0, 999, 2)
	var want []int64
	for k := int64(0); k < 1000; k += 7 {
		s.Insert(k)
		want = append(want, k)
	}
	if err := s.Split(0); err != nil {
		t.Fatal(err)
	}
	if got := s.Shards(); got != 3 {
		t.Fatalf("Shards() = %d after split, want 3", got)
	}
	if got := keysOf(s); !equal(got, want) {
		t.Fatalf("keys after split = %v, want %v", got, want)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if g := s.Generation(); g != 1 {
		t.Fatalf("Generation() = %d, want 1", g)
	}
	if sp, me := s.Migrations(); sp != 1 || me != 0 {
		t.Fatalf("Migrations() = %d, %d", sp, me)
	}
	// The split point is the median key of the split shard's contents,
	// not the middle of its key range: both halves hold keys.
	lo0, hi0 := s.Router().Bounds(0)
	lo1, hi1 := s.Router().Bounds(1)
	if n := s.RangeCount(lo0, hi0); n == 0 {
		t.Fatal("left half of the split is empty")
	}
	if n := s.RangeCount(lo1, hi1); n == 0 {
		t.Fatal("right half of the split is empty")
	}
	// Point ops keep working across the new boundary.
	if !s.Insert(hi0) && !s.Find(hi0) {
		t.Fatal("insert at the new boundary failed")
	}
	if !s.Insert(lo1+1) && !s.Find(lo1+1) {
		t.Fatal("insert right of the new boundary failed")
	}
}

// TestMergePreservesContents: merging two shards removes their shared
// boundary and preserves contents.
func TestMergePreservesContents(t *testing.T) {
	s := NewRange(0, 999, 4)
	var want []int64
	for k := int64(0); k < 1000; k += 3 {
		s.Insert(k)
		want = append(want, k)
	}
	if err := s.Merge(1); err != nil {
		t.Fatal(err)
	}
	if got := s.Shards(); got != 3 {
		t.Fatalf("Shards() = %d after merge, want 3", got)
	}
	if got := keysOf(s); !equal(got, want) {
		t.Fatalf("keys after merge = %v, want %v", got, want)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if sp, me := s.Migrations(); sp != 0 || me != 1 {
		t.Fatalf("Migrations() = %d, %d", sp, me)
	}
	// Merge down to a single shard and back up: contents invariant.
	for s.Shards() > 1 {
		if err := s.Merge(0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Split(0); err != nil {
		t.Fatal(err)
	}
	if got := keysOf(s); !equal(got, want) {
		t.Fatalf("keys after merge-all+split = %v, want %v", got, want)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceErrors: bad indexes and too-small shards are rejected,
// and a failed split changes nothing.
func TestRebalanceErrors(t *testing.T) {
	s := NewRange(0, 99, 2)
	s.Insert(10)
	if err := s.Split(0); !errors.Is(err, ErrSplitTooSmall) {
		t.Fatalf("split of a 1-key shard: %v", err)
	}
	if err := s.Split(5); err == nil {
		t.Fatal("split of an out-of-range index succeeded")
	}
	if err := s.Merge(1); err == nil {
		t.Fatal("merge of the last shard succeeded")
	}
	if got := s.Shards(); got != 2 {
		t.Fatalf("failed migrations changed the shard count to %d", got)
	}
	if !s.Find(10) {
		t.Fatal("failed migrations lost a key")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleTableMigrationRefused: a migration whose shard index was
// chosen against a superseded routing table is refused rather than
// reinterpreted against the new one — the race window between a
// Rebalancer tick's load sample and its Split/Merge call.
func TestStaleTableMigrationRefused(t *testing.T) {
	s := NewRange(0, 999, 2)
	for k := int64(0); k < 1000; k += 3 {
		s.Insert(k)
	}
	stale := s.tab.Load()
	if err := s.Split(0); err != nil { // moves the table under `stale`
		t.Fatal(err)
	}
	if err := s.splitTable(stale, 1); !errors.Is(err, errStaleTable) {
		t.Fatalf("split against a stale table: %v, want errStaleTable", err)
	}
	if err := s.mergeTable(stale, 0); !errors.Is(err, errStaleTable) {
		t.Fatalf("merge against a stale table: %v, want errStaleTable", err)
	}
	if got := s.Shards(); got != 3 {
		t.Fatalf("stale migrations changed the shard count to %d", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotSurvivesMigration: a composite snapshot taken before a
// split keeps reading its cut — the retired trees stay reconstructible —
// while the live set moves on, including across Compact passes.
func TestSnapshotSurvivesMigration(t *testing.T) {
	s := NewRange(0, 999, 2)
	for k := int64(0); k < 200; k++ {
		s.Insert(k)
	}
	snap := s.Snapshot()
	defer snap.Release()
	if err := s.Split(0); err != nil {
		t.Fatal(err)
	}
	for k := int64(500); k < 600; k++ {
		s.Insert(k)
	}
	s.Compact()
	if got := snap.Len(); got != 200 {
		t.Fatalf("pre-split snapshot Len = %d, want 200", got)
	}
	if snap.Contains(500) {
		t.Fatal("pre-split snapshot sees a post-split insert")
	}
	if got := s.Len(); got != 300 {
		t.Fatalf("live Len = %d, want 300", got)
	}
}

// TestMigrationUnderConcurrentLoad: updaters, scanners and a snapshotter
// run across a storm of splits and merges; per-key balances must match
// the final contents and every scan must stay well-formed. Run with
// -race.
func TestMigrationUnderConcurrentLoad(t *testing.T) {
	const keyRange = 1 << 10
	s := NewRange(0, keyRange-1, 2)
	balance := make([]atomic.Int64, keyRange)
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, 8)

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := workload.NewRNG(uint64(w) + 1)
			for !stop.Load() {
				k := rng.Intn(keyRange)
				if rng.Intn(2) == 0 {
					if s.Insert(k) {
						balance[k].Add(1)
					}
				} else if s.Delete(k) {
					balance[k].Add(-1)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() { // scanner: ascending, in-range, no duplicates
		defer wg.Done()
		rng := workload.NewRNG(977)
		for !stop.Load() {
			a := rng.Intn(keyRange)
			b := a + rng.Intn(keyRange/4+1)
			prev := int64(-1)
			s.RangeScanFunc(a, b, func(k int64) bool {
				if k < a || k > b || k <= prev {
					errc <- errors.New("malformed scan during migration")
					return false
				}
				prev = k
				return true
			})
		}
	}()
	wg.Add(1)
	go func() { // snapshotter: stability across migrations
		defer wg.Done()
		for !stop.Load() {
			snap := s.Snapshot()
			if a, b := snap.Len(), snap.Len(); a != b {
				errc <- errors.New("unstable snapshot during migration")
			}
			snap.Release()
		}
	}()
	wg.Add(1)
	go func() { // migration storm: alternate splitting the fullest and merging
		defer wg.Done()
		rng := workload.NewRNG(31337)
		for !stop.Load() {
			if p := s.Shards(); p < 8 {
				s.Split(int(rng.Intn(int64(p)))) //nolint:errcheck // benign races expected
			} else {
				s.Merge(int(rng.Intn(int64(p - 1)))) //nolint:errcheck
			}
			time.Sleep(time.Millisecond)
		}
	}()

	time.Sleep(400 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < keyRange; k++ {
		b := balance[k].Load()
		present := s.Find(k)
		if present && b != 1 || !present && b != 0 {
			t.Fatalf("key %d: balance %d, present %v", k, b, present)
		}
	}
	if sp, me := s.Migrations(); sp+me == 0 {
		t.Fatal("the migration storm never migrated")
	}
}

// TestRebalancerSplitsHotMergesCold drives the decision logic
// deterministically through Tick: skewed load splits the hot shard;
// removing the skew then merges cold shards back, and hysteresis keeps
// the end state stable.
func TestRebalancerSplitsHotMergesCold(t *testing.T) {
	s := NewRange(0, 1<<16-1, 4)
	for k := int64(0); k < 1<<16; k += 16 {
		s.Insert(k)
	}
	rb := NewRebalancer(s, RebalanceConfig{MaxShards: 8, MinTickOps: 64})
	hammer := func(lo, hi int64, n int) {
		rng := workload.NewRNG(7)
		for i := 0; i < n; i++ {
			s.Find(lo + rng.Intn(hi-lo+1))
		}
	}
	rb.Tick() // baseline sample
	// All load on shard 0's range: ticks must split it (re-baselining
	// after each migration), up to MaxShards.
	splits := 0
	for i := 0; i < 20 && s.Shards() < 8; i++ {
		hammer(0, 1<<14-1, 4096)
		if act := rb.Tick(); act != "" {
			splits++
		}
	}
	if splits == 0 || s.Shards() <= 4 {
		t.Fatalf("skewed load produced %d splits, %d shards", splits, s.Shards())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Shift all load far away: the shards split out of the now-cold hot
	// range must merge back (the newly hot range may split concurrently,
	// so count merges, not net shards).
	for i := 0; i < 40; i++ {
		hammer(1<<15, 1<<16-1, 4096)
		rb.Tick()
	}
	if _, merges := s.Migrations(); merges == 0 {
		t.Fatalf("cold shards never merged (%d shards)", s.Shards())
	}
	// Idle ticks (below MinTickOps) must do nothing.
	p := s.Shards()
	for i := 0; i < 5; i++ {
		if act := rb.Tick(); act != "" {
			t.Fatalf("idle tick acted: %s", act)
		}
	}
	if s.Shards() != p {
		t.Fatal("idle ticks changed the shard count")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAutoRebalanceUnderSkew is the end-to-end tentpole check: a
// clustered-zipf workload against an auto-rebalancing set grows shards
// at the hot range, and the set stays correct throughout.
func TestAutoRebalanceUnderSkew(t *testing.T) {
	const keyRange = 1 << 16
	s := NewRange(0, keyRange-1, 2)
	// One bulk load builds balanced shards; ascending Inserts would make
	// each shard a chain and the setup quadratic.
	var initial []int64
	for k := int64(0); k < keyRange; k += 8 {
		initial = append(initial, k)
	}
	if _, err := s.BulkLoad(initial); err != nil {
		t.Fatal(err)
	}
	stop := s.AutoRebalance(RebalanceConfig{Interval: 2 * time.Millisecond, MaxShards: 16})
	var done atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := workload.NewRNG(uint64(w) * 99)
			z := workload.NewZipfClustered(0, keyRange, 1.2)
			for !done.Load() {
				k := z.Key(rng)
				switch rng.Intn(3) {
				case 0:
					s.Insert(k)
				case 1:
					s.Delete(k)
				default:
					s.Find(k)
				}
			}
		}(w)
	}
	// Poll rather than sleep a fixed window: under the race detector a
	// short window can end before the first split.
	for deadline := time.Now().Add(10 * time.Second); s.Shards() <= 2 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	done.Store(true)
	wg.Wait()
	stop() // idempotent
	if got := s.Shards(); got <= 2 {
		t.Fatalf("auto-rebalancer never split under skew: %d shards", got)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if sp, _ := s.Migrations(); sp == 0 {
		t.Fatal("no splits recorded")
	}
}

// TestLoadCountersResetPerGeneration: ShardLoads counts ops on the
// current table only.
func TestLoadCountersResetPerGeneration(t *testing.T) {
	s := NewRange(0, 99, 2)
	for k := int64(0); k < 100; k++ {
		s.Insert(k)
	}
	loads := s.ShardLoads()
	if loads[0]+loads[1] != 100 {
		t.Fatalf("ShardLoads = %v, want 100 total", loads)
	}
	if err := s.Split(0); err != nil {
		t.Fatal(err)
	}
	for _, l := range s.ShardLoads() {
		if l != 0 {
			t.Fatalf("post-migration ShardLoads = %v, want zeros", s.ShardLoads())
		}
	}
	s.Find(1)
	if l := s.ShardLoads()[0]; l != 1 {
		t.Fatalf("load after one Find = %d", l)
	}
}

// TestStatsCumulativeAcrossMigrations: retiring trees folds their
// counters in, so Stats never goes backwards over a migration.
func TestStatsCumulativeAcrossMigrations(t *testing.T) {
	s := NewRange(0, 999, 2)
	for k := int64(0); k < 500; k++ {
		s.Insert(k)
	}
	s.RangeScan(0, 999)
	before := s.Stats()
	if err := s.Split(0); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.Scans < before.Scans || after.Helps < before.Helps ||
		after.RetriesInsert < before.RetriesInsert {
		t.Fatalf("Stats went backwards across a migration: %+v -> %+v", before, after)
	}
	s.ResetStats()
	if st := s.Stats(); st.Scans != 0 || st.RetriesInsert != 0 {
		t.Fatalf("ResetStats left %+v", st)
	}
}

// TestSealedTreeStranding is the lost-update regression for the seal
// ordering: hammer inserts into one shard while it is split; every
// insert that reported success must be visible afterwards (in whichever
// tree now owns the key).
func TestSealedTreeStranding(t *testing.T) {
	for round := 0; round < 50; round++ {
		s := NewRange(0, 999, 2)
		for k := int64(0); k < 400; k += 2 {
			s.Insert(k)
		}
		var wg sync.WaitGroup
		inserted := make([][]int64, 4)
		start := make(chan struct{})
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for k := int64(w); k < 400; k += 4 {
					if k%2 == 1 && s.Insert(k) {
						inserted[w] = append(inserted[w], k)
					}
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			s.Split(0) //nolint:errcheck
		}()
		close(start)
		wg.Wait()
		for w := range inserted {
			for _, k := range inserted[w] {
				if !s.Find(k) {
					t.Fatalf("round %d: insert of %d succeeded but the key is gone (stranded above the cut?)", round, k)
				}
			}
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// equalCoreKeys is a seam for comparing against core trees if needed.
var _ = core.MaxKey
