package persist

import (
	"math/rand"
	"os"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/bst"
)

func newTestMap() *bst.ShardedMap { return bst.NewShardedRange(0, 1<<20, 8) }

func openTest(t *testing.T, dir string) (*Map, *Image) {
	t.Helper()
	p, img, err := Open(Config{Dir: dir}, newTestMap())
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return p, img
}

func wantKeys(t *testing.T, got, want []int64, what string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d keys, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: key[%d] = %d, want %d", what, i, got[i], want[i])
		}
	}
}

func TestRoundTripWALOnly(t *testing.T) {
	dir := t.TempDir()
	p, img := openTest(t, dir)
	if img.HasCheckpoint || len(img.Keys) != 0 {
		t.Fatalf("fresh dir recovered %v", img)
	}
	for k := int64(0); k < 500; k++ {
		if !p.Insert(k * 3) {
			t.Fatalf("Insert(%d) = false", k*3)
		}
	}
	for k := int64(0); k < 500; k += 2 {
		if !p.Delete(k * 3) {
			t.Fatalf("Delete(%d) = false", k*3)
		}
	}
	want := p.Keys()
	if err := p.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	p2, img2 := openTest(t, dir)
	defer p2.Close()
	if img2.HasCheckpoint {
		t.Fatalf("no checkpoint was taken, yet recovery found one")
	}
	if img2.WALApplied == 0 {
		t.Fatalf("recovery applied no WAL records")
	}
	wantKeys(t, p2.Keys(), want, "recovered")
}

func TestCrashWithoutCloseRecovers(t *testing.T) {
	// Group-commit mode acks after fsync, so dropping the Map without
	// Close models a kill -9 after the last ack: everything acked must
	// survive.
	dir := t.TempDir()
	p, _ := openTest(t, dir)
	var want []int64
	for k := int64(0); k < 300; k++ {
		p.Insert(k)
		if k%3 == 0 {
			p.Delete(k)
		} else {
			want = append(want, k)
		}
	}
	// no Close: the crash

	img, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	wantKeys(t, img.Keys, want, "post-crash image")
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	p, _ := openTest(t, dir)
	for k := int64(0); k < 1000; k++ {
		p.Insert(k)
	}
	st, err := p.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if st.Keys != 1000 {
		t.Fatalf("checkpoint streamed %d keys, want 1000", st.Keys)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("after checkpoint: %d WAL segments remain, want 1 (truncation)", len(segs))
	}
	// Post-checkpoint traffic lands in the surviving segment.
	for k := int64(1000); k < 1200; k++ {
		p.Insert(k)
	}
	p.Delete(0)
	want := p.Keys()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, img := openTest(t, dir)
	defer p2.Close()
	if !img.HasCheckpoint || img.Cut != st.Cut {
		t.Fatalf("recovered from cut %d (has=%v), want %d", img.Cut, img.HasCheckpoint, st.Cut)
	}
	wantKeys(t, p2.Keys(), want, "recovered")
}

func TestPhaseFilterDeleteAfterCheckpoint(t *testing.T) {
	// insert k → checkpoint (image contains k) → delete k → crash.
	// The delete's phase is above the cut, so replay must apply it; a
	// conservative stamp or a broken filter would resurrect k.
	dir := t.TempDir()
	p, _ := openTest(t, dir)
	p.Insert(42)
	p.Insert(43)
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	p.Delete(42)

	img, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, img.Keys, []int64{43}, "post-delete image")
}

func TestSecondProcessLineage(t *testing.T) {
	// Ops from a second process (post-recovery clock) must order above
	// the first process's phases: same key inserted in life 1, deleted
	// in life 2, then recovered again.
	dir := t.TempDir()
	p, _ := openTest(t, dir)
	p.Insert(7)
	p.Insert(8)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, _ := openTest(t, dir)
	p2.Delete(7)
	p2.Insert(9)
	if err := p2.Close(); err != nil {
		t.Fatal(err)
	}

	p3, _ := openTest(t, dir)
	defer p3.Close()
	wantKeys(t, p3.Keys(), []int64{8, 9}, "third life")
}

func TestBatchAndBulkLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	p, _ := openTest(t, dir)
	loaded := make([]int64, 0, 2000)
	for k := int64(0); k < 2000; k++ {
		loaded = append(loaded, k*2)
	}
	if added, err := p.BulkLoad(loaded); err != nil || added != len(loaded) {
		t.Fatalf("BulkLoad: added=%d err=%v", added, err)
	}
	ops := []bst.BatchOp{
		{Kind: bst.BatchInsert, Key: 1},    // effective insert
		{Kind: bst.BatchDelete, Key: 2},    // effective delete of a loaded key
		{Kind: bst.BatchInsert, Key: 4},    // ineffective (loaded): not logged
		{Kind: bst.BatchContains, Key: 6},  // read: not logged
		{Kind: bst.BatchDelete, Key: 1001}, // ineffective: not logged
	}
	res := make([]bool, len(ops))
	p.ApplyBatch(ops, res)
	if !res[0] || !res[1] || res[2] || !res[3] || res[4] {
		t.Fatalf("batch results %v", res)
	}
	want := p.Keys()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, img := openTest(t, dir)
	defer p2.Close()
	if img.WALApplied == 0 {
		t.Fatal("no WAL records applied")
	}
	wantKeys(t, p2.Keys(), want, "recovered")
}

func TestDeleteAfterBulkLoadOrdering(t *testing.T) {
	// A load unions its keys at the cut; deletes of loaded keys commit
	// at strictly higher phases and must win in replay regardless of WAL
	// append order.
	dir := t.TempDir()
	p, _ := openTest(t, dir)
	p.BulkLoad([]int64{10, 20, 30})
	p.Delete(20)
	p.Insert(20) // flip back: load(…20…), del(20), ins(20) → present
	p.Delete(30)

	img, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, img.Keys, []int64{10, 20}, "load/flip image")
}

func TestConcurrentGroupCommit(t *testing.T) {
	dir := t.TempDir()
	p, _ := openTest(t, dir)
	const workers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			base := int64(w * 10_000)
			for i := 0; i < per; i++ {
				k := base + int64(rng.Intn(5_000))
				if rng.Intn(3) == 0 {
					p.Delete(k)
				} else {
					p.Insert(k)
				}
			}
		}(w)
	}
	wg.Wait()
	st := p.Stats()
	if st.WALAppends == 0 || st.DurableWatermark != st.WALAppends {
		t.Fatalf("stats %+v: watermark must cover every acked append", st)
	}
	want := p.Keys()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, _ := openTest(t, dir)
	defer p2.Close()
	wantKeys(t, p2.Keys(), want, "recovered after concurrent churn")
	t.Logf("group commit: %d appends, %d fsyncs", st.WALAppends, st.WALSyncs)
}

func TestConcurrentChurnDuringCheckpoint(t *testing.T) {
	// Writers at full tilt while a checkpoint streams; recovery must
	// equal the final state exactly (image at the cut + replay above it).
	dir := t.TempDir()
	p, _ := openTest(t, dir)
	for k := int64(0); k < 4096; k++ {
		p.Insert(k)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := int64(rng.Intn(1 << 14))
				if rng.Intn(2) == 0 {
					p.Insert(k)
				} else {
					p.Delete(k)
				}
			}
		}(w)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	want := p.Keys()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	p2, _ := openTest(t, dir)
	defer p2.Close()
	wantKeys(t, p2.Keys(), want, "recovered after churned checkpoints")
}

func TestOpenRejections(t *testing.T) {
	m := newTestMap()
	m.Insert(1)
	if _, _, err := Open(Config{Dir: t.TempDir()}, m); err != ErrNonEmptyMap {
		t.Fatalf("non-empty map: err = %v, want ErrNonEmptyMap", err)
	}
}

func TestSyncEveryWindowMode(t *testing.T) {
	dir := t.TempDir()
	p, _, err := Open(Config{Dir: dir, SyncEvery: time.Millisecond}, newTestMap())
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 100; k++ {
		p.Insert(k)
	}
	want := p.Keys()
	if err := p.Close(); err != nil { // close fsyncs the window
		t.Fatal(err)
	}
	p2, _ := openTest(t, dir)
	defer p2.Close()
	wantKeys(t, p2.Keys(), want, "windowed-sync recovered")
}

func TestAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	p, _ := openTest(t, dir)
	defer p.Close()
	for k := int64(0); k < 100; k++ {
		p.Insert(k)
	}
	stopCk := p.StartAutoCheckpoint(2 * time.Millisecond)
	deadline := time.Now().Add(2 * time.Second)
	for p.Stats().Checkpoints == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stopCk()
	if p.Stats().Checkpoints == 0 {
		t.Fatal("auto-checkpoint never completed")
	}
}

func TestMidBatchTornTailDropsWholeGroup(t *testing.T) {
	// The deterministic mid-MBATCH kill: a batch's records share one WAL
	// frame, so a crash that tears the frame mid-write must drop the
	// whole batch — never expose a prefix of it.
	dir := t.TempDir()
	p, _ := openTest(t, dir)
	p.Insert(1)
	ops := []bst.BatchOp{
		{Kind: bst.BatchInsert, Key: 100},
		{Kind: bst.BatchInsert, Key: 200},
		{Kind: bst.BatchInsert, Key: 300},
	}
	res := make([]bool, len(ops))
	p.ApplyBatch(ops, res)
	// Simulate the kill landing mid-frame: shear bytes off the segment
	// tail so the batch frame's CRC cannot match.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := segPath(dir, segs[len(segs)-1])
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	img, err := Recover(dir)
	if err != nil {
		t.Fatalf("Recover after torn batch frame: %v", err)
	}
	if img.TornTail == 0 {
		t.Fatal("torn frame not counted")
	}
	wantKeys(t, img.Keys, []int64{1}, "image after torn batch")
	sort.Slice(img.Keys, func(i, j int) bool { return img.Keys[i] < img.Keys[j] })
	for _, k := range []int64{100, 200, 300} {
		i := sort.Search(len(img.Keys), func(i int) bool { return img.Keys[i] >= k })
		if i < len(img.Keys) && img.Keys[i] == k {
			t.Fatalf("torn batch partially applied: key %d present", k)
		}
	}
}
