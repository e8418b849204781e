package shard

import (
	"sync"
	"testing"
	"time"

	"repro/internal/lincheck"
)

// The cross-boundary move tests pin the tentpole property: a scan
// spanning a shard boundary is ONE atomic cut. The adversarial schedule
// is deterministic — the scan's visitor callback runs between the
// shard-0 cut and the shard-1 cut, and performs the racing move right
// there — so the §5.2 anomaly is forced, not hoped for. On the shared
// clock the move lands in a later phase than the scan and is invisible;
// to a stitched scan (stitchedScan) the move is visible in the
// not-yet-cut shard only, splitting the scan across two states.

// stitchedScan visits [a, b] of s one shard at a time: RangeScanFunc
// over each covered shard's bounds in turn, so each shard is cut at its
// own phase of the shared clock, opened when the scan reaches it. This
// is the per-shard composition that one atomic cut rules out.
func stitchedScan(s *Set, a, b int64, visit func(k int64) bool) {
	r := s.Router()
	first, last := r.Covering(a, b)
	stopped := false
	for i := first; i <= last && !stopped; i++ {
		lo, hi := r.Bounds(i)
		s.RangeScanFunc(max(a, lo), min(b, hi), func(k int64) bool {
			stopped = !visit(k)
			return !stopped
		})
	}
}

// moveScan runs the deterministic schedule: a 2-shard set over [0, 999]
// (boundary 500) holding sentinel k0=100 plus the "item" at exactly one
// of home=400 (shard 0) or away=600 (shard 1); mid-scan, the visitor
// moves the item to the other side (inserting the new location before
// deleting the old, or the reverse). The scan is s.RangeScanFunc, or
// stitchedScan when stitched is set. Returns the scanned keys.
func moveScan(s *Set, stitched bool, item, dest int64, insertFirst bool) []int64 {
	scan := s.RangeScanFunc
	if stitched {
		scan = func(a, b int64, visit func(k int64) bool) { stitchedScan(s, a, b, visit) }
	}
	moved := false
	var got []int64
	scan(0, 999, func(k int64) bool {
		if !moved {
			moved = true
			if insertFirst {
				s.Insert(dest)
				s.Delete(item)
			} else {
				s.Delete(item)
				s.Insert(dest)
			}
		}
		got = append(got, k)
		return true
	})
	return got
}

// TestCrossShardScanAtomicCut: on the default (shared-clock) set, both
// move directions are invisible to the in-flight scan — it reports
// exactly the pre-move state, the atomic cut of its phase.
func TestCrossShardScanAtomicCut(t *testing.T) {
	for _, tc := range []struct {
		name        string
		item, dest  int64
		insertFirst bool
	}{
		{"move right into shard 1, union never empty", 600, 400, true},
		{"move left out of shard 0, both never present", 400, 600, false},
	} {
		s := NewRange(0, 999, 2)
		s.Insert(100)
		s.Insert(tc.item)
		got := moveScan(s, false, tc.item, tc.dest, tc.insertFirst)
		want := []int64{100, tc.item}
		if tc.item < 100 {
			want = []int64{tc.item, 100}
		}
		if !equal(got, want) {
			t.Fatalf("%s: scan = %v, want pre-move cut %v", tc.name, got, want)
		}
	}
}

// TestStitchedCrossShardAnomaly pins why the shared clock's single cut
// is needed (DESIGN.md §5.2). A stitched scan is exactly what
// Set.RangeScanFunc did for ALL sets before the shared clock: the same
// schedules produce results no single instant of the set ever held (the
// item vanishes entirely, or appears on both sides of the boundary at
// once).
func TestStitchedCrossShardAnomaly(t *testing.T) {
	// Item moves from shard 1 to shard 0: the insert lands in the
	// already-cut shard (invisible), the delete in the not-yet-cut shard
	// (visible) — the scan sees NEITHER location, though the union was
	// never empty.
	s := NewRange(0, 999, 2)
	s.Insert(100)
	s.Insert(600)
	if got := moveScan(s, true, 600, 400, true); !equal(got, []int64{100}) {
		t.Fatalf("stitched move-left scan = %v, want the anomalous [100]", got)
	}
	// Item moves from shard 0 to shard 1: the delete is invisible, the
	// insert visible — the scan sees BOTH locations, though at most one
	// was ever present.
	s = NewRange(0, 999, 2)
	s.Insert(100)
	s.Insert(400)
	if got := moveScan(s, true, 400, 600, false); !equal(got, []int64{100, 400, 600}) {
		t.Fatalf("stitched move-right scan = %v, want the anomalous [100 400 600]", got)
	}
}

// TestCrossShardSnapshotAtomicCut: the composite snapshot captures one
// shared phase, and a snapshot taken mid-"move" (between the two point
// ops) reports the intermediate state — not a torn one.
func TestCrossShardSnapshotAtomicCut(t *testing.T) {
	s := NewRange(0, 999, 2)
	s.Insert(400)
	snapBefore := s.Snapshot()
	s.Insert(600) // move right: insert new home...
	snapMid := s.Snapshot()
	s.Delete(400) // ...then delete the old
	snapAfter := s.Snapshot()
	for _, c := range []struct {
		name string
		snap *Snapshot
		want []int64
	}{
		{"before", snapBefore, []int64{400}},
		{"mid", snapMid, []int64{400, 600}},
		{"after", snapAfter, []int64{600}},
	} {
		if got := c.snap.Keys(); !equal(got, c.want) {
			t.Fatalf("snapshot %s = %v, want %v", c.name, got, c.want)
		}
	}
	// Each snapshot opens its own phase, so the captured phases ascend.
	if a, b, c := snapBefore.Seq(), snapMid.Seq(), snapAfter.Seq(); !(a < b && b < c) {
		t.Fatalf("snapshot phases %d, %d, %d do not ascend", a, b, c)
	}
}

// TestCrossShardMoveLincheck is the concurrent regression: a mover
// shuttles an item across a shard boundary while scanners take
// cross-boundary range scans; the full history (point ops + scan
// observations) must be linearizable per the scan-aware checker backed
// by the seqset oracle. This fails on stitched composition whenever
// a scan straddles a move; with the shared clock it must always pass.
func TestCrossShardMoveLincheck(t *testing.T) {
	const (
		rounds   = 40
		kL, kR   = 499, 500 // adjacent keys on opposite sides of the boundary
		moves    = 8
		scanners = 2
		scansPer = 5
	)
	for round := 0; round < rounds; round++ {
		s := NewRange(0, 999, 2)
		var points []lincheck.Event
		record := func(kind lincheck.OpKind, k int64, inv int64, ret bool) {
			points = append(points, lincheck.Event{
				Kind: kind, Key: k, Ret: ret, Inv: inv, Res: time.Now().UnixNano(),
			})
		}
		inv := time.Now().UnixNano()
		record(lincheck.Insert, kL, inv, s.Insert(kL))

		scanHistories := make([][]lincheck.ScanEvent, scanners)
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(1)
		go func() { // the mover
			defer wg.Done()
			<-start
			src, dst := int64(kL), int64(kR)
			for i := 0; i < moves; i++ {
				inv := time.Now().UnixNano()
				record(lincheck.Insert, dst, inv, s.Insert(dst))
				inv = time.Now().UnixNano()
				record(lincheck.Delete, src, inv, s.Delete(src))
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
					keys := s.RangeScan(0, 999)
					scanHistories[w] = append(scanHistories[w], lincheck.ScanEvent{
						A: 0, B: 999, Keys: keys,
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
			t.Fatalf("round %d: cross-boundary scan history not linearizable: %v", round, err)
		}
	}
}

// TestSplitDuringScanAtomicCut is the deterministic split-during-scan
// regression: mid-scan (from the visitor, i.e. strictly between visits
// of an in-flight atomic scan), shard 0 is split so that the NEW
// boundary lands inside the scanned range, and a move is performed
// across that new boundary. The scan owns a phase opened before the
// migration cut, so it must observe exactly the pre-split, pre-move
// state — the single-phase cut — with zero tears, even though it
// finishes traversing trees that are no longer in the routing table.
func TestSplitDuringScanAtomicCut(t *testing.T) {
	s := NewRange(0, 999, 2) // boundary at 500
	for _, k := range []int64{100, 400, 600} {
		s.Insert(k)
	}
	migrated := false
	var got []int64
	s.RangeScanFunc(0, 999, func(k int64) bool {
		if !migrated {
			migrated = true
			// Split shard 0 at the median of {100, 400}: new boundary 400,
			// inside this scan's range.
			if err := s.Split(0); err != nil {
				t.Fatalf("split during scan: %v", err)
			}
			if s.Shards() != 3 {
				t.Fatalf("Shards() = %d mid-scan, want 3", s.Shards())
			}
			// Move a key across the NEW boundary both ways: 100 (left of
			// it) moves to 450 (right of it). Neither side may be torn
			// into the in-flight scan.
			s.Insert(450)
			s.Delete(100)
		}
		got = append(got, k)
		return true
	})
	if want := []int64{100, 400, 600}; !equal(got, want) {
		t.Fatalf("scan through a split = %v, want the pre-split cut %v", got, want)
	}
	// The live set reflects the move, and the split boundary is the
	// median key.
	if want := []int64{400, 450, 600}; !equal(s.Keys(), want) {
		t.Fatalf("post-scan keys = %v, want %v", s.Keys(), want)
	}
	if lo, _ := s.Router().Bounds(1); lo != 400 {
		t.Fatalf("split boundary = %d, want the median 400", lo)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeDuringScanAtomicCut is the same schedule with the boundary
// REMOVED mid-scan: the two-shard set is merged into one while a
// cross-boundary scan is in flight, and a move races right behind the
// merge. The scan must still report its own phase's cut.
func TestMergeDuringScanAtomicCut(t *testing.T) {
	s := NewRange(0, 999, 2)
	for _, k := range []int64{100, 600} {
		s.Insert(k)
	}
	migrated := false
	var got []int64
	s.RangeScanFunc(0, 999, func(k int64) bool {
		if !migrated {
			migrated = true
			if err := s.Merge(0); err != nil {
				t.Fatalf("merge during scan: %v", err)
			}
			s.Insert(300)
			s.Delete(600)
		}
		got = append(got, k)
		return true
	})
	if want := []int64{100, 600}; !equal(got, want) {
		t.Fatalf("scan through a merge = %v, want the pre-merge cut %v", got, want)
	}
	if want := []int64{100, 300}; !equal(s.Keys(), want) {
		t.Fatalf("post-scan keys = %v, want %v", s.Keys(), want)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRebalanceLincheck extends the cross-boundary lincheck rounds with
// a concurrent rebalancer: a mover shuttles an item across the (moving)
// shard boundary, scanners take cross-boundary range scans, and a
// splitter goroutine splits and re-merges the shards the whole time.
// The complete history — point ops plus scan observations — must stay
// linearizable per the scan-aware checker; any update stranded above a
// migration cut, or any scan observing half a migration, fails it.
func TestRebalanceLincheck(t *testing.T) {
	const (
		rounds   = 30
		kL, kR   = 499, 500
		moves    = 6
		scanners = 2
		scansPer = 4
	)
	for round := 0; round < rounds; round++ {
		s := NewRange(0, 999, 2)
		// A little ballast so splits have medians on both sides of the
		// boundary; ballast keys are outside every scanned range.
		// (Scans cover [400, 699]; ballast sits in [0, 99] and [900, 999].)
		for k := int64(0); k < 100; k += 10 {
			s.Insert(k)
			s.Insert(900 + k)
		}
		var mu sync.Mutex
		var points []lincheck.Event
		record := func(kind lincheck.OpKind, k int64, inv int64, ret bool) {
			mu.Lock()
			points = append(points, lincheck.Event{
				Kind: kind, Key: k, Ret: ret, Inv: inv, Res: time.Now().UnixNano(),
			})
			mu.Unlock()
		}
		inv := time.Now().UnixNano()
		record(lincheck.Insert, kL, inv, s.Insert(kL))

		scanHistories := make([][]lincheck.ScanEvent, scanners)
		var wg sync.WaitGroup
		start := make(chan struct{})
		wg.Add(1)
		go func() { // the mover
			defer wg.Done()
			<-start
			src, dst := int64(kL), int64(kR)
			for i := 0; i < moves; i++ {
				inv := time.Now().UnixNano()
				record(lincheck.Insert, dst, inv, s.Insert(dst))
				inv = time.Now().UnixNano()
				record(lincheck.Delete, src, inv, s.Delete(src))
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
					keys := s.RangeScan(400, 699)
					scanHistories[w] = append(scanHistories[w], lincheck.ScanEvent{
						A: 400, B: 699, Keys: keys,
						Inv: inv, Res: time.Now().UnixNano(),
					})
				}
			}(w)
		}
		wg.Add(1)
		go func(round int) { // the splitter: churn the routing table
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
			t.Fatalf("round %d: history under rebalancing not linearizable: %v", round, err)
		}
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestStatsLogicalScans is the table test for the Scans counter's
// definition: one logical phase-opening read operation on the set counts
// ONCE, however many shards it touches — with the shared clock a
// cross-shard scan opens one phase; summing per-shard counters (the old
// aggregation) would have counted it up to P times.
func TestStatsLogicalScans(t *testing.T) {
	prefill := []int64{10, 110, 210, 310} // one key per shard of NewRange(0, 399, 4)
	cases := []struct {
		name string
		run  func(s *Set)
		want uint64
	}{
		{"scan spanning all shards", func(s *Set) { s.RangeScan(0, 399) }, 1},
		{"single-shard scan", func(s *Set) { s.RangeScan(0, 50) }, 1},
		{"empty-range scan opens no phase", func(s *Set) { s.RangeScan(50, 40) }, 0},
		{"count and len", func(s *Set) { s.RangeCount(0, 399); s.Len() }, 2},
		{"snapshot", func(s *Set) { s.Snapshot().Release() }, 1},
		{"ordered queries", func(s *Set) { s.Min(); s.Max(); s.Succ(10); s.Pred(310) }, 4},
		{"point ops are not scans", func(s *Set) { s.Insert(5); s.Find(5); s.Delete(5) }, 0},
		{"ten wide scans", func(s *Set) {
			for i := 0; i < 10; i++ {
				s.RangeScan(0, 399)
			}
		}, 10},
	}
	for _, tc := range cases {
		s := NewRange(0, 399, 4)
		for _, k := range prefill {
			s.Insert(k)
		}
		tc.run(s)
		if got := s.Stats().Scans; got != tc.want {
			t.Errorf("%s: Stats().Scans = %d, want %d", tc.name, got, tc.want)
		}
		s.ResetStats()
		if got := s.Stats().Scans; got != 0 {
			t.Errorf("%s: Scans = %d after ResetStats", tc.name, got)
		}
	}
}
