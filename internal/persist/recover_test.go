package persist

import (
	"os"
	"path/filepath"
	"testing"
)

// The tests in this file are the regression suite for the recovery edge
// cases that shipped broken in a first draft of the recovery path: each
// encodes the crash shape byte-for-byte and asserts the image, so a
// future refactor that mishandles the shape fails here, not in a soak.

func TestRecoverEmptyCheckpointNonEmptyWAL(t *testing.T) {
	// Checkpoint an EMPTY map, then write: the image contributes zero
	// keys and every later record has phase > cut. A recovery that
	// treats "no keys in checkpoint" as "no checkpoint" would replay
	// with cut 0 — same answer here, but it would mask rotation bugs —
	// so the image must report HasCheckpoint with zero keys.
	dir := t.TempDir()
	p, _ := openTest(t, dir)
	st, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if st.Keys != 0 {
		t.Fatalf("empty-map checkpoint streamed %d keys", st.Keys)
	}
	p.Insert(5)
	p.Insert(6)
	p.Delete(5)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	img, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !img.HasCheckpoint || img.CheckpointKeys != 0 || img.Cut != st.Cut {
		t.Fatalf("image %+v: want a zero-key checkpoint at cut %d", img, st.Cut)
	}
	wantKeys(t, img.Keys, []int64{6}, "empty checkpoint + WAL")
}

func TestOpenSeedsZeroKeyCheckpoint(t *testing.T) {
	// Full Open over a zero-key checkpoint: the seed path must cope with
	// an empty image (BuildFromSorted n=0 under the hood) and the clock
	// must still advance past the cut so new phases exceed it.
	dir := t.TempDir()
	p, _ := openTest(t, dir)
	st, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	p2, img := openTest(t, dir)
	defer p2.Close()
	if len(img.Keys) != 0 || !img.HasCheckpoint {
		t.Fatalf("image %+v", img)
	}
	if img.MaxPhase < st.Cut {
		t.Fatalf("MaxPhase %d below cut %d", img.MaxPhase, st.Cut)
	}
	// A post-recovery insert+delete cycle must replay correctly: its
	// phases must land above the cut.
	p2.Insert(1)
	p2.Delete(1)
	p2.Insert(2)
	img2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys(t, img2.Keys, []int64{2}, "life after zero-key checkpoint")
}

func TestDuplicateKeyReplayAfterUncleanCheckpointBoundary(t *testing.T) {
	// An unclean boundary: the checkpoint image is durable but the crash
	// hit before dropBefore, so the WAL still holds the records the
	// image already covers. Replay sees every key twice — once in the
	// image, once as a WAL insert — and must NOT flip them back out:
	// the phase<=cut filter, not log deduplication, is what makes
	// replay idempotent.
	dir := t.TempDir()
	p, _ := openTest(t, dir)
	for k := int64(0); k < 50; k++ {
		p.Insert(k)
	}
	want := p.Keys()

	// Cut a checkpoint by hand: snapshot + writeCheckpoint, with no
	// rotation and no truncation — exactly the state after a crash
	// between Checkpoint's rename and its dropBefore.
	m := p.Underlying()
	snap := m.Snapshot()
	cut := snap.Seq()
	if _, _, err := writeCheckpoint(dir, cut, snap, 0, nil); err != nil {
		snap.Release()
		t.Fatal(err)
	}
	snap.Release()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	img, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !img.HasCheckpoint || img.Cut != cut {
		t.Fatalf("image %+v: want checkpoint at cut %d", img, cut)
	}
	if img.WALApplied != 0 {
		t.Fatalf("replay applied %d records the image already covers", img.WALApplied)
	}
	wantKeys(t, img.Keys, want, "unclean boundary")
}

func TestTornFinalPointRecordTruncatesNotErrors(t *testing.T) {
	// kill -9 mid-append: the final record's frame is cut short. The
	// torn frame is crash residue — recovery must drop it and serve,
	// never refuse to start.
	dir := t.TempDir()
	p, _ := openTest(t, dir)
	p.Insert(1)
	p.Insert(2)
	p.Insert(3)

	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := segPath(dir, segs[len(segs)-1])
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, cutBytes := range []int64{1, 5} { // mid-payload and mid-CRC
		if err := os.Truncate(path, fi.Size()-cutBytes); err != nil {
			t.Fatal(err)
		}
		img, err := Recover(dir)
		if err != nil {
			t.Fatalf("Recover with %d-byte tear: %v", cutBytes, err)
		}
		if img.TornTail == 0 {
			t.Fatalf("%d-byte tear not counted", cutBytes)
		}
		wantKeys(t, img.Keys, []int64{1, 2}, "after torn final record")
	}
}

func TestTornFrameBelowNewestSegmentIsAnError(t *testing.T) {
	// The flip side of torn-tail tolerance: a torn frame in a SEALED
	// segment means fsynced bytes vanished. That is corruption, not
	// crash residue, and recovery must refuse rather than silently
	// serve a hole.
	dir := t.TempDir()
	p, _ := openTest(t, dir)
	p.Insert(1)
	p.Insert(2)
	if _, err := p.wal.rotate(); err != nil { // seals segment 1, opens 2
		t.Fatal(err)
	}
	p.Insert(3)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := segPath(dir, segs[0])
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-2); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir); err == nil {
		t.Fatal("Recover accepted a torn frame below the newest segment")
	}
}

func TestPartialTmpCheckpointIgnored(t *testing.T) {
	// Crash mid-checkpoint, before the rename: a ckpt-*.tmp with
	// arbitrary partial content. Recovery ignores it entirely and Open
	// sweeps it.
	dir := t.TempDir()
	p, _ := openTest(t, dir)
	p.Insert(10)
	p.Insert(20)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	tmp := ckptPath(dir, 999) + ".tmp"
	if err := os.WriteFile(tmp, []byte("half a checkpo"), 0o644); err != nil {
		t.Fatal(err)
	}

	img, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if img.HasCheckpoint || len(img.BadCheckpoints) != 0 {
		t.Fatalf("image %+v: .tmp must be invisible to recovery", img)
	}
	wantKeys(t, img.Keys, []int64{10, 20}, "with stray .tmp")

	p2, _ := openTest(t, dir)
	defer p2.Close()
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("Open did not sweep %s (err=%v)", filepath.Base(tmp), err)
	}
}

func TestFooterlessCheckpointFallsBackToOlder(t *testing.T) {
	// A .ckpt that lost its footer (hand-renamed .tmp, truncation below
	// the newest checkpoint's frames) must be skipped — recorded in
	// BadCheckpoints — with recovery falling back to the next-newest
	// valid image rather than serving a partial one or failing.
	dir := t.TempDir()
	p, _ := openTest(t, dir)
	p.Insert(1)
	p.Insert(2)
	st, err := p.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	p.Insert(3)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Fabricate a newer, footerless checkpoint claiming a huge cut: if
	// recovery trusted it, the bogus cut would filter out every WAL
	// record and keys would vanish.
	bogus := ckptPath(dir, st.Cut+1000)
	f, err := os.Create(bogus)
	if err != nil {
		t.Fatal(err)
	}
	hdr := append([]byte(nil), ckptMagic...)
	hdr = append(hdr, 0xFF, 0xFF, 0x01) // cut uvarint, then no footer
	if _, err := f.Write(appendFrame(nil, hdr)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	img, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.BadCheckpoints) != 1 {
		t.Fatalf("BadCheckpoints = %v, want the fabricated file", img.BadCheckpoints)
	}
	if !img.HasCheckpoint || img.Cut != st.Cut {
		t.Fatalf("image %+v: want fallback to cut %d", img, st.Cut)
	}
	wantKeys(t, img.Keys, []int64{1, 2, 3}, "fallback image + replay")
}

func TestRecoverEmptyDirAndMissingDir(t *testing.T) {
	img, err := Recover(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Keys) != 0 || img.HasCheckpoint || img.NextSeg != 1 {
		t.Fatalf("empty dir image %+v", img)
	}
	if _, err := Recover(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("Recover on a missing directory must error (Open creates it first)")
	}
}
