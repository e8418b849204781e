package shard

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lincheck"
)

// TestApplyBatchOracle: random batches spanning all shards match a map
// oracle op for op, including cross-shard ordering of duplicate keys.
func TestApplyBatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := NewRange(0, 999, 4)
	oracle := map[int64]bool{}
	for round := 0; round < 300; round++ {
		n := rng.Intn(32)
		ops := make([]core.BatchOp, n)
		for i := range ops {
			ops[i] = core.BatchOp{Kind: core.BatchKind(rng.Intn(3)), Key: int64(rng.Intn(1000))}
		}
		res := make([]bool, n)
		s.ApplyBatch(ops, res)
		for i, op := range ops {
			var want bool
			switch op.Kind {
			case core.BatchInsert:
				want = !oracle[op.Key]
				oracle[op.Key] = true
			case core.BatchDelete:
				want = oracle[op.Key]
				delete(oracle, op.Key)
			default:
				want = oracle[op.Key]
			}
			if res[i] != want {
				t.Fatalf("round %d op %d (%v %d): got %v, want %v", round, i, op.Kind, op.Key, res[i], want)
			}
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := 0
	for range oracle {
		want++
	}
	if got := s.Len(); got != want {
		t.Fatalf("Len = %d, oracle %d", got, want)
	}
}

// TestApplyBatchLoadAccounting: batches feed the per-generation shard
// load counters the rebalancer reads, one count per applied op.
func TestApplyBatchLoadAccounting(t *testing.T) {
	s := NewRange(0, 999, 2)
	ops := []core.BatchOp{
		{Kind: core.BatchInsert, Key: 10},
		{Kind: core.BatchInsert, Key: 20},
		{Kind: core.BatchInsert, Key: 600},
	}
	s.ApplyBatch(ops, make([]bool, len(ops)))
	loads := s.ShardLoads()
	if loads[0] != 2 || loads[1] != 1 {
		t.Fatalf("ShardLoads = %v, want [2 1]", loads)
	}
}

// TestApplyBatchLincheck runs concurrent ApplyBatch traffic against
// Split/Merge churn and cross-shard scans; the full history (per-batch
// point ops plus scan observations) must pass the scan-aware checker.
// Any batched op stranded above a migration cut, or committing twice
// across a re-route, breaks it.
func TestApplyBatchLincheck(t *testing.T) {
	const (
		rounds   = 30
		workers  = 3
		batches  = 3
		batchLen = 4
		scanners = 2
		scansPer = 4
	)
	for round := 0; round < rounds; round++ {
		s := NewRange(0, 999, 2)
		// Ballast outside the scanned range so splits have room to move
		// the boundary on both sides.
		for k := int64(0); k < 100; k += 10 {
			s.Insert(k)
			s.Insert(900 + k)
		}
		var mu sync.Mutex
		var points []lincheck.Event
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				<-start
				ops := make([]core.BatchOp, batchLen)
				res := make([]bool, batchLen)
				for b := 0; b < batches; b++ {
					for i := range ops {
						// Keys straddle the initial shard boundary (499|500)
						// inside the scanned window.
						ops[i] = core.BatchOp{Kind: core.BatchKind(rng.Intn(3)), Key: 499 + int64(rng.Intn(2))}
					}
					inv := time.Now().UnixNano()
					s.ApplyBatch(ops, res)
					resTs := time.Now().UnixNano()
					mu.Lock()
					for i, op := range ops {
						kind := lincheck.Find
						switch op.Kind {
						case core.BatchInsert:
							kind = lincheck.Insert
						case core.BatchDelete:
							kind = lincheck.Delete
						}
						points = append(points, lincheck.Event{
							Kind: kind, Key: op.Key, Ret: res[i], Inv: inv, Res: resTs,
						})
					}
					mu.Unlock()
				}
			}(rand.New(rand.NewSource(int64(round*workers + w))))
		}
		scanHistories := make([][]lincheck.ScanEvent, scanners)
		for w := 0; w < scanners; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; i < scansPer; i++ {
					inv := time.Now().UnixNano()
					keys := s.RangeScan(400, 699)
					scanHistories[w] = append(scanHistories[w], lincheck.ScanEvent{
						A: 400, B: 699, Keys: keys,
						Inv: inv, Res: time.Now().UnixNano(),
					})
				}
			}(w)
		}
		wg.Add(1)
		go func(round int) { // migration churn under the batches
			defer wg.Done()
			<-start
			for i := 0; i < 8; i++ {
				if p := s.Shards(); p < 4 {
					s.Split((round + i) % p) //nolint:errcheck // benign races expected
				} else {
					s.Merge((round + i) % (p - 1)) //nolint:errcheck
				}
			}
		}(round)
		close(start)
		wg.Wait()
		var scans []lincheck.ScanEvent
		for _, h := range scanHistories {
			scans = append(scans, h...)
		}
		if err := lincheck.CheckWithScans(points, scans); err != nil {
			t.Fatalf("round %d: batched history under rebalancing not linearizable: %v", round, err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestApplyBatchMigrationCut is the deterministic migration-during-batch
// regression: a shard is sealed and cut exactly as a migration would,
// WHILE a batch targets it. No batched update may commit above the cut —
// the cut snapshot must not contain the batch's keys — and once the
// replacement table installs, the stalled remainder must re-route and
// complete against the new trees.
func TestApplyBatchMigrationCut(t *testing.T) {
	s := NewRange(0, 999, 2)
	s.Insert(100) // pre-existing key in shard 0, below the cut

	// Manual migration front half, exactly like splitLocked: seal shard 0
	// and cut. ApplyBatch must now refuse to commit updates there.
	s.migrateMu.Lock()
	tab := s.tab.Load()
	snaps, _ := s.cutShards(tab, 0, 0)

	done := make(chan []bool)
	go func() {
		ops := []core.BatchOp{
			{Kind: core.BatchInsert, Key: 200}, // shard 0: must stall until the install
			{Kind: core.BatchInsert, Key: 700}, // shard 1: unaffected by the cut
		}
		res := make([]bool, len(ops))
		s.ApplyBatch(ops, res)
		done <- res
	}()

	// The shard-1 half may commit immediately; the shard-0 half must not
	// land in the sealed tree, which can no longer change.
	deadline := time.After(2 * time.Second)
	for !s.Find(700) {
		select {
		case <-deadline:
			t.Fatal("unaffected shard-1 op did not complete while shard 0 was sealed")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	select {
	case <-done:
		t.Fatal("ApplyBatch returned while its shard was sealed with no replacement")
	case <-time.After(50 * time.Millisecond):
	}
	if snaps[0].Contains(200) {
		t.Fatal("batched insert visible in the migration cut snapshot")
	}
	if sealedLen := tab.trees[0].Len(); sealedLen != 1 {
		t.Fatalf("sealed tree changed after the cut: Len = %d, want 1", sealedLen)
	}

	// Back half of the migration: rebuild shard 0 from its snapshot and
	// install. The stalled batch op must re-route into the replacement.
	keys := snaps[0].Keys()
	nt, err := core.BuildFromSortedKeys(s.clock, keys)
	if err != nil {
		t.Fatal(err)
	}
	s.install(tab, 0, 0, tab.r.starts, []*core.Tree{nt})
	for _, snap := range snaps {
		snap.Release()
	}
	s.migrateMu.Unlock()

	res := <-done
	if !res[0] || !res[1] {
		t.Fatalf("batch results after re-route: %v, want both true", res)
	}
	for _, k := range []int64{100, 200, 700} {
		if !s.Find(k) {
			t.Fatalf("key %d missing after migration completed", k)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBulkLoadBasic: a load merges with existing contents, counts only
// fresh keys, and leaves a structurally valid set.
func TestBulkLoadBasic(t *testing.T) {
	s := NewRange(0, 999, 4)
	for _, k := range []int64{5, 250, 500, 750} {
		s.Insert(k)
	}
	added, err := s.BulkLoad([]int64{1, 5, 300, 500, 801, 999})
	if err != nil {
		t.Fatal(err)
	}
	if added != 4 {
		t.Fatalf("added = %d, want 4", added)
	}
	if got, want := s.Len(), 8; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	for _, k := range []int64{1, 5, 250, 300, 500, 750, 801, 999} {
		if !s.Find(k) {
			t.Fatalf("key %d missing after load", k)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The load is one migration-style table swap per call.
	if _, err := s.BulkLoad(nil); err != nil {
		t.Fatal(err)
	}
}

// TestBulkLoadRejectsBadInput: unsorted/duplicate/out-of-range input
// fails without modifying the set.
func TestBulkLoadRejectsBadInput(t *testing.T) {
	s := NewRange(0, 999, 2)
	s.Insert(7)
	if _, err := s.BulkLoad([]int64{3, 2}); !errors.Is(err, ErrUnsortedBulkLoad) {
		t.Fatalf("unsorted: %v", err)
	}
	if _, err := s.BulkLoad([]int64{3, 3}); !errors.Is(err, ErrUnsortedBulkLoad) {
		t.Fatalf("duplicate: %v", err)
	}
	if _, err := s.BulkLoad([]int64{1, core.MaxKey + 1}); err == nil {
		t.Fatal("out-of-range key accepted")
	}
	if s.Len() != 1 || !s.Find(7) {
		t.Fatal("rejected load modified the set")
	}
}

// TestBulkLoadConcurrentReaders: readers and updaters running through a
// load observe nothing torn — reads are wait-free across the table swap
// and updates re-route.
func TestBulkLoadConcurrentReaders(t *testing.T) {
	s := NewRange(0, 99_999, 4)
	for k := int64(0); k < 1000; k++ {
		s.Insert(k * 7 % 99_000)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := int64((i*13 + w) % 99_000)
				s.Find(k)
				if i%10 == 0 {
					s.Insert(99_001 + int64(w)) // hot keys outside the load
					s.Delete(99_001 + int64(w))
				}
			}
		}(w)
	}
	keys := make([]int64, 0, 5000)
	for k := int64(0); k < 5000; k++ {
		keys = append(keys, k*3+90) // overlaps the prefill range
	}
	if _, err := s.BulkLoad(keys); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	for _, k := range keys {
		if !s.Find(k) {
			t.Fatalf("loaded key %d missing", k)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
