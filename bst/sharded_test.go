package bst_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/bst"
	"repro/internal/lincheck"
	"repro/internal/seqset"
	"repro/internal/workload"
)

// TestShardedMatchesSingleTree drives identical sequential op streams
// through a ShardedMap (several shard counts) and the sequential oracle
// set and requires identical results, including multi-shard range scans
// — the acceptance check for the sharded layer.
func TestShardedMatchesSingleTree(t *testing.T) {
	const keys = 1 << 12
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			t.Parallel()
			m := bst.NewShardedRange(0, keys-1, shards)
			oracle := seqset.New()
			rng := workload.NewRNG(uint64(shards))
			for op := 0; op < 30000; op++ {
				k := rng.Intn(keys)
				switch rng.Intn(5) {
				case 0, 1:
					if got, want := m.Insert(k), oracle.Insert(k); got != want {
						t.Fatalf("shards=%d op=%d: Insert(%d) = %v, want %v", shards, op, k, got, want)
					}
				case 2:
					if got, want := m.Delete(k), oracle.Delete(k); got != want {
						t.Fatalf("shards=%d op=%d: Delete(%d) = %v, want %v", shards, op, k, got, want)
					}
				case 3:
					if got, want := m.Contains(k), oracle.Contains(k); got != want {
						t.Fatalf("shards=%d op=%d: Contains(%d) = %v, want %v", shards, op, k, got, want)
					}
				default:
					a := rng.Intn(keys)
					b := a + rng.Intn(keys/2)
					got, want := m.RangeScan(a, b), oracle.RangeScan(a, b)
					if len(got) != len(want) {
						t.Fatalf("shards=%d: RangeScan(%d,%d) sizes %d vs %d", shards, a, b, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("shards=%d: RangeScan(%d,%d)[%d] = %d, want %d", shards, a, b, i, got[i], want[i])
						}
					}
				}
			}
			if m.Len() != oracle.Len() {
				t.Fatalf("shards=%d: Len %d vs %d", shards, m.Len(), oracle.Len())
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("shards=%d: %v", shards, err)
			}
		})
	}
}

// TestShardedBoundaries pins the shard metadata accessors and boundary
// routing: boundary keys belong to exactly one shard, bounds tile the
// key space, and scans that start or end exactly on a boundary are
// correct.
func TestShardedBoundaries(t *testing.T) {
	m := bst.NewShardedRange(0, 1023, 4)
	if m.Shards() != 4 {
		t.Fatalf("Shards() = %d", m.Shards())
	}
	for i := 0; i < 4; i++ {
		lo, hi := m.ShardBounds(i)
		if m.ShardOf(lo) != i || m.ShardOf(hi) != i {
			t.Fatalf("bounds of shard %d [%d,%d] do not route home", i, lo, hi)
		}
	}
	// 256 is the first key of shard 1; 255 the last of shard 0.
	if m.ShardOf(255) == m.ShardOf(256) {
		t.Fatal("boundary keys 255/256 in same shard")
	}
	m.Insert(255)
	m.Insert(256)
	if got := m.RangeScan(255, 256); len(got) != 2 || got[0] != 255 || got[1] != 256 {
		t.Fatalf("boundary-straddling scan = %v", got)
	}
	if got := m.RangeScan(256, 256); len(got) != 1 || got[0] != 256 {
		t.Fatalf("boundary-start scan = %v", got)
	}
	if got := m.RangeScan(0, 255); len(got) != 1 || got[0] != 255 {
		t.Fatalf("boundary-end scan = %v", got)
	}
}

// TestShardedFullKeyspace exercises NewSharded (no focus range) with
// negative and positive keys, and MinKey/MaxKey extremes.
func TestShardedFullKeyspace(t *testing.T) {
	m := bst.NewSharded(8)
	keys := []int64{bst.MinKey, -1 << 40, -7, 0, 7, 1 << 40, bst.MaxKey}
	for _, k := range keys {
		if !m.Insert(k) {
			t.Fatalf("Insert(%d) = false", k)
		}
	}
	got := m.RangeScan(bst.MinKey, bst.MaxKey)
	if len(got) != len(keys) {
		t.Fatalf("full scan = %v", got)
	}
	for i, k := range keys {
		if got[i] != k {
			t.Fatalf("full scan[%d] = %d, want %d", i, got[i], k)
		}
	}
	if k, ok := m.Min(); !ok || k != bst.MinKey {
		t.Fatalf("Min = %d,%v", k, ok)
	}
	if k, ok := m.Max(); !ok || k != bst.MaxKey {
		t.Fatalf("Max = %d,%v", k, ok)
	}
	if k, ok := m.Succ(8); !ok || k != 1<<40 {
		t.Fatalf("Succ(8) = %d,%v", k, ok)
	}
	if k, ok := m.Pred(6); !ok || k != 0 {
		t.Fatalf("Pred(6) = %d,%v", k, ok)
	}
}

// TestShardedSnapshotStability takes a composite snapshot under a
// concurrent update storm and requires every re-read to observe the
// identical composite.
func TestShardedSnapshotStability(t *testing.T) {
	const keyRange = 1 << 10
	m := bst.NewShardedRange(0, keyRange-1, 4)
	rng := workload.NewRNG(3)
	for i := 0; i < keyRange/2; i++ {
		m.Insert(rng.Intn(keyRange))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := workload.NewRNG(uint64(w) + 100)
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := r.Intn(keyRange)
				if r.Intn(2) == 0 {
					m.Insert(k)
				} else {
					m.Delete(k)
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		snap := m.Snapshot()
		first := snap.Keys()
		second := snap.Keys()
		if len(first) != len(second) {
			t.Fatalf("snapshot unstable: %d then %d keys", len(first), len(second))
		}
		for j := range first {
			if first[j] != second[j] {
				t.Fatalf("snapshot unstable at index %d: %d then %d", j, first[j], second[j])
			}
		}
		if snap.Len() != len(first) {
			t.Fatalf("snapshot Len %d != Keys len %d", snap.Len(), len(first))
		}
	}
	close(stop)
	wg.Wait()
}

// TestShardedLinearizable records concurrent Insert/Delete/Contains
// histories against a ShardedMap and runs the lincheck checker over
// them: point operations must stay linearizable across the sharded
// front end, including on keys adjacent to shard boundaries.
func TestShardedLinearizable(t *testing.T) {
	const (
		workers = 8
		rounds  = 40
	)
	// Tiny key set clustered on the shard boundaries of a 4-shard router
	// over [0, 1024): 256 and 512 are first keys of shards 1 and 2.
	hotKeys := []int64{255, 256, 511, 512, 513}
	for round := 0; round < rounds; round++ {
		m := bst.NewShardedRange(0, 1023, 4)
		histories := make([][]lincheck.Event, workers)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := workload.NewRNG(uint64(round*workers + w))
				<-start
				for i := 0; i < 6; i++ { // ≤ 48 ops/key in total, under lincheck's 64 cap
					k := hotKeys[rng.Intn(int64(len(hotKeys)))]
					kind := lincheck.OpKind(rng.Intn(3))
					inv := time.Now().UnixNano()
					var ret bool
					switch kind {
					case lincheck.Insert:
						ret = m.Insert(k)
					case lincheck.Delete:
						ret = m.Delete(k)
					default:
						ret = m.Contains(k)
					}
					histories[w] = append(histories[w], lincheck.Event{
						Kind: kind, Key: k, Ret: ret,
						Inv: inv, Res: time.Now().UnixNano(),
					})
				}
			}(w)
		}
		close(start)
		wg.Wait()
		var all []lincheck.Event
		for _, h := range histories {
			all = append(all, h...)
		}
		if err := lincheck.Check(all); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}
