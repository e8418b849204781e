package bst_test

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/bst"
	"repro/internal/workload"
)

// TestShardedSplitMerge exercises the public rebalancing surface:
// explicit Split/Merge preserve contents and scan results, report
// through Migrations/ShardLoads, and reject misuse with the exported
// errors.
func TestShardedSplitMerge(t *testing.T) {
	m := bst.NewShardedRange(0, 1<<12-1, 2)
	var want []int64
	for k := int64(0); k < 1<<12; k += 5 {
		m.Insert(k)
		want = append(want, k)
	}
	if err := m.Split(0); err != nil {
		t.Fatal(err)
	}
	if m.Shards() != 3 {
		t.Fatalf("Shards() = %d after Split, want 3", m.Shards())
	}
	got := m.Keys()
	if len(got) != len(want) {
		t.Fatalf("Keys() = %d keys after Split, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Keys()[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if err := m.Merge(0); err != nil {
		t.Fatal(err)
	}
	if m.Shards() != 2 {
		t.Fatalf("Shards() = %d after Merge, want 2", m.Shards())
	}
	if splits, merges := m.Migrations(); splits != 1 || merges != 1 {
		t.Fatalf("Migrations() = %d, %d, want 1, 1", splits, merges)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if loads := m.ShardLoads(); len(loads) != 2 {
		t.Fatalf("ShardLoads() has %d entries, want 2", len(loads))
	}

	empty := bst.NewSharded(2)
	if err := empty.Split(0); !errors.Is(err, bst.ErrSplitTooSmall) {
		t.Fatalf("Split of an empty shard: %v, want ErrSplitTooSmall", err)
	}
}

// TestShardedAutoRebalance runs the background rebalancer against a
// spatially skewed workload through the public map: shards must grow at
// the hot range while concurrent snapshots stay stable, and the map must
// end structurally valid with the Set semantics intact.
func TestShardedAutoRebalance(t *testing.T) {
	const keys = 1 << 15
	m := bst.NewShardedRange(0, keys-1, 2)
	for k := int64(0); k < keys; k += 4 {
		m.Insert(k)
	}
	stop := m.StartAutoRebalance(bst.RebalanceConfig{Interval: 2 * time.Millisecond, MaxShards: 16})
	var done atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := workload.NewRNG(uint64(w) + 7)
			z := workload.NewZipfClustered(0, keys, 1.3)
			for !done.Load() {
				k := z.Key(rng)
				switch rng.Intn(3) {
				case 0:
					m.Insert(k)
				case 1:
					m.Delete(k)
				default:
					m.Contains(k)
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var prev uint64
		for n := 0; !done.Load(); n++ {
			snap := m.Snapshot()
			if a, b := snap.Len(), snap.Len(); a != b {
				t.Errorf("snapshot unstable during rebalancing: %d then %d", a, b)
			}
			seq := snap.Seq()
			if n > 0 && seq <= prev {
				t.Errorf("composite snapshot phase %d not above the previous %d during rebalancing", seq, prev)
			}
			prev = seq
			snap.Release()
		}
	}()
	time.Sleep(250 * time.Millisecond)
	done.Store(true)
	wg.Wait()
	stop()
	if m.Shards() <= 2 {
		t.Fatalf("rebalancer never split under skew: %d shards", m.Shards())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
