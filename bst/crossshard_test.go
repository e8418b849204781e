package bst_test

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/bst"
	"repro/internal/lincheck"
)

// TestShardedMoveAtomicCut is the ShardedMap-level failing-first
// regression for the §5.2 cross-shard anomaly: a concurrent
// cross-boundary move (delete the item's key on one side of a shard
// boundary, insert its new key on the other) must be invisible to an
// in-flight multi-shard scan — the scan is ONE atomic cut. The racing
// move is forced deterministically from inside the scan's visitor (which
// runs between the per-shard cuts), so before the shared phase clock
// this test failed on every run; the anomalous interleaving it pins is
// reproduced — also deterministically — by TestShardedStitchedMoveAnomaly
// below.
func TestShardedMoveAtomicCut(t *testing.T) {
	// Boundary at 512: sentinel 10 drives the visitor; the item moves
	// 400 -> 600 (delete from shard 0, insert into shard 1).
	m := bst.NewShardedRange(0, 1023, 2)
	m.Insert(10)
	m.Insert(400)
	moved := false
	var got []int64
	m.RangeScanFunc(0, 1023, func(k int64) bool {
		if !moved {
			moved = true
			m.Delete(400)
			m.Insert(600)
		}
		got = append(got, k)
		return true
	})
	if len(got) != 2 || got[0] != 10 || got[1] != 400 {
		t.Fatalf("mid-move scan = %v, want the pre-move atomic cut [10 400]", got)
	}
}

// TestShardedStitchedMoveAnomaly pins what a stitched scan — one
// RangeScanFunc per shard, each cut at its own phase, as every
// ShardedMap scanned before the shared clock — does on the same
// schedule: the delete is invisible to the already-cut shard, the
// insert visible to the not-yet-cut one, so the scan reports the item
// in BOTH places — a set no instant ever held, rejected by the
// scan-aware checker.
func TestShardedStitchedMoveAnomaly(t *testing.T) {
	m := bst.NewShardedRange(0, 1023, 2)
	var points []lincheck.Event
	record := func(kind lincheck.OpKind, k int64, f func() bool) {
		inv := time.Now().UnixNano()
		ret := f()
		points = append(points, lincheck.Event{
			Kind: kind, Key: k, Ret: ret, Inv: inv, Res: time.Now().UnixNano(),
		})
	}
	record(lincheck.Insert, 10, func() bool { return m.Insert(10) })
	record(lincheck.Insert, 400, func() bool { return m.Insert(400) })
	moved := false
	start := time.Now().UnixNano()
	var got []int64
	visit := func(k int64) bool {
		if !moved {
			moved = true
			// The delete completes before the insert begins, so no
			// linearization can have 400 and 600 present at once.
			record(lincheck.Delete, 400, func() bool { return m.Delete(400) })
			record(lincheck.Insert, 600, func() bool { return m.Insert(600) })
		}
		got = append(got, k)
		return true
	}
	for i := m.ShardOf(0); i <= m.ShardOf(1023); i++ {
		lo, hi := m.ShardBounds(i)
		m.RangeScanFunc(max(lo, 0), min(hi, 1023), visit)
	}
	if len(got) != 3 {
		t.Fatalf("stitched mid-move scan = %v, want the anomalous [10 400 600]", got)
	}
	// Encoded as a history, the observation is non-linearizable: 400 and
	// 600 were never both present (checked against the seqset oracle).
	scan := lincheck.ScanEvent{A: 0, B: 1023, Keys: got, Inv: start, Res: time.Now().UnixNano()}
	if err := lincheck.CheckWithScans(points, []lincheck.ScanEvent{scan}); err == nil {
		t.Fatal("scan-aware checker accepted the stitched both-places anomaly")
	}
}

// TestShardedCrossBoundaryMoveLincheck is the concurrent regression
// required by the atomic-cut guarantee: a mover shuttles an item back
// and forth across a shard boundary while scanners take continuous
// multi-shard scans of the ShardedMap; the combined history of point
// operations and scan observations must be linearizable against the
// seqset oracle (lincheck.CheckWithScans).
func TestShardedCrossBoundaryMoveLincheck(t *testing.T) {
	const (
		rounds   = 40
		kL, kR   = 511, 512 // opposite sides of the shard-0/1 boundary
		moves    = 8
		scanners = 2
		scansPer = 5
	)
	for round := 0; round < rounds; round++ {
		m := bst.NewShardedRange(0, 1023, 4)
		var points []lincheck.Event
		record := func(kind lincheck.OpKind, k int64, inv int64, ret bool) {
			points = append(points, lincheck.Event{
				Kind: kind, Key: k, Ret: ret, Inv: inv, Res: time.Now().UnixNano(),
			})
		}
		record(lincheck.Insert, kL, time.Now().UnixNano(), m.Insert(kL))

		scanHistories := make([][]lincheck.ScanEvent, scanners)
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(1)
		go func() { // mover: delete from shard i, insert into shard i±1
			defer wg.Done()
			<-start
			src, dst := int64(kL), int64(kR)
			for i := 0; i < moves; i++ {
				inv := time.Now().UnixNano()
				record(lincheck.Insert, dst, inv, m.Insert(dst))
				inv = time.Now().UnixNano()
				record(lincheck.Delete, src, inv, m.Delete(src))
				src, dst = dst, src
			}
		}()
		for w := 0; w < scanners; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				for i := 0; i < scansPer; i++ {
					inv := time.Now().UnixNano()
					keys := m.RangeScan(0, 1023)
					scanHistories[w] = append(scanHistories[w], lincheck.ScanEvent{
						A: 0, B: 1023, Keys: keys,
						Inv: inv, Res: time.Now().UnixNano(),
					})
				}
			}(w)
		}
		close(start)
		wg.Wait()
		var scans []lincheck.ScanEvent
		for _, h := range scanHistories {
			scans = append(scans, h...)
		}
		if err := lincheck.CheckWithScans(points, scans); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestShardedSnapshotReadAfterRelease: the composite snapshot detects
// the read-after-Release misuse at the public call site, with a message
// naming it (instead of an opaque "version chain pruned" panic deep in
// core once pruning has run).
func TestShardedSnapshotReadAfterRelease(t *testing.T) {
	m := bst.NewShardedRange(0, 1023, 4)
	for k := int64(0); k < 100; k += 10 {
		m.Insert(k)
	}
	snap := m.Snapshot()
	if snap.Len() != 10 {
		t.Fatalf("live snapshot Len = %d", snap.Len())
	}
	snap.Release()
	for what, read := range map[string]func(){
		"Contains":  func() { snap.Contains(50) },
		"Keys":      func() { snap.Keys() },
		"RangeScan": func() { snap.RangeScan(0, 100) },
		"Len":       func() { snap.Len() },
	} {
		func() {
			defer func() {
				r := recover()
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "released composite Snapshot") {
					t.Fatalf("%s after Release: got %v, want the misuse panic", what, r)
				}
			}()
			read()
		}()
	}
	snap.Release() // idempotent
}
