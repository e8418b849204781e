package core

import (
	"fmt"
	"math"
	"testing"
)

func buildKeys(t *testing.T, c *Clock, keys []int64) *Tree {
	t.Helper()
	tr, err := BuildFromSortedKeys(c, keys)
	if err != nil {
		t.Fatalf("BuildFromSortedKeys(%v): %v", keys, err)
	}
	return tr
}

// TestBuildFromSortedShape: built trees pass the full structural
// invariant suite, hold exactly the input keys, and are balanced
// (height logarithmic in n, against Insert's ~2·log2 n expectation for
// random orders and O(n) worst case).
func TestBuildFromSortedShape(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 8, 100, 1 << 12} {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(3*i + 1)
		}
		tr := buildKeys(t, nil, keys)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got := tr.Keys(); !equalKeys(got, keys) {
			t.Fatalf("n=%d: keys = %v, want %v", n, got, keys)
		}
		// The user subtree is perfectly balanced: ceil(log2 n) internal
		// levels plus the leaf, plus the two sentinel wrappers above it.
		if n > 0 {
			maxH := 1 + 2 // leaf level + root + ∞1 wrapper
			for c := 1; c < n; c *= 2 {
				maxH++
			}
			if h := tr.Height(); h > maxH {
				t.Fatalf("n=%d: height %d exceeds balanced bound %d", n, h, maxH)
			}
		}
	}
}

// TestBuildFromSortedOperations: a built tree is a fully working PNB-BST
// — point ops, scans, snapshots, ordered queries and Compact all behave
// as on an insert-grown tree.
func TestBuildFromSortedOperations(t *testing.T) {
	keys := []int64{2, 4, 6, 8, 10}
	tr := buildKeys(t, nil, keys)
	if tr.Insert(4) {
		t.Fatal("Insert(4) succeeded on a tree already holding 4")
	}
	if !tr.Insert(5) || !tr.Find(5) {
		t.Fatal("Insert(5)/Find(5) failed")
	}
	if !tr.Delete(2) || tr.Find(2) {
		t.Fatal("Delete(2) failed")
	}
	snap := tr.Snapshot()
	tr.Insert(100)
	if snap.Contains(100) {
		t.Fatal("snapshot sees a post-snapshot insert")
	}
	snap.Release()
	if got := tr.RangeScan(4, 9); !equalKeys(got, []int64{4, 5, 6, 8}) {
		t.Fatalf("RangeScan(4,9) = %v", got)
	}
	if p, ok := tr.Pred(7); !ok || p != 6 {
		t.Fatalf("Pred(7) = %d, %v", p, ok)
	}
	if s, ok := tr.Succ(7); !ok || s != 8 {
		t.Fatalf("Succ(7) = %d, %v", s, ok)
	}
	tr.Compact()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildFromSortedSharedClock: a built tree joins an existing phase
// domain — phase-explicit reads at a shared-clock phase see all its keys
// (built nodes carry phase 0).
func TestBuildFromSortedSharedClock(t *testing.T) {
	c := NewClock()
	other := NewWithClock(c)
	for i := int64(0); i < 50; i++ {
		other.Insert(i) // advance nothing; updates share phase 0 until a scan
	}
	other.RangeScan(0, 49) // opens a phase: clock moves on
	tr := buildKeys(t, c, []int64{7, 9})
	reg := tr.Register()
	seq := c.Open()
	if got := tr.RangeScanAt(MinKey, MaxKey, seq); !equalKeys(got, []int64{7, 9}) {
		t.Fatalf("RangeScanAt = %v, want [7 9]", got)
	}
	reg.Release()
	if tr.Clock() != c {
		t.Fatal("built tree does not share the given clock")
	}
}

// TestBuildFromSortedErrors: malformed streams are rejected, never
// half-built into a panic.
func TestBuildFromSortedErrors(t *testing.T) {
	cases := []struct {
		name string
		n    int
		keys []int64
	}{
		{"descending", 2, []int64{5, 3}},
		{"duplicate", 2, []int64{5, 5}},
		{"sentinel key", 1, []int64{math.MaxInt64}},
		{"short stream", 3, []int64{1, 2}},
		{"negative count", -1, nil},
	}
	for _, tc := range cases {
		i := 0
		_, err := BuildFromSorted(nil, tc.n, func() (int64, bool) {
			if i >= len(tc.keys) {
				return 0, false
			}
			k := tc.keys[i]
			i++
			return k, true
		})
		if err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

// TestBuildFromSnapshotIterator: the intended migration pipeline —
// snapshot cut, pull iterator, bulk build — round-trips the key set.
func TestBuildFromSnapshotIterator(t *testing.T) {
	src := New()
	var want []int64
	for i := int64(0); i < 500; i += 5 {
		src.Insert(i)
		want = append(want, i)
	}
	snap := src.Snapshot()
	defer snap.Release()
	it := snap.Iter(MinKey, MaxKey)
	tr, err := BuildFromSorted(nil, snap.Len(), func() (int64, bool) {
		if !it.Next() {
			return 0, false
		}
		return it.Key(), true
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tr.Keys(); !equalKeys(got, want) {
		t.Fatalf("rebuilt keys = %v, want %v", got, want)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSealStopsUpdates: TryApplyOps refuses updates on a sealed tree
// without side effects (applied=0, ok=false), plain Insert/Delete panic
// naming the misuse, and reads remain fully functional.
func TestSealStopsUpdates(t *testing.T) {
	tr := New()
	tr.Insert(1)
	tr.Insert(2)
	res := make([]bool, 1)
	if applied, ok := tr.TryApplyOps([]BatchOp{{BatchInsert, 3}}, res, nil); !ok || applied != 1 || !res[0] {
		t.Fatalf("TryApplyOps insert before seal = %d, %v, %v", applied, ok, res[0])
	}
	tr.Seal()
	if !tr.Sealed() {
		t.Fatal("Sealed() false after Seal")
	}
	if applied, ok := tr.TryApplyOps([]BatchOp{{BatchInsert, 4}}, res, nil); ok || applied != 0 {
		t.Fatalf("TryApplyOps insert on a sealed tree = %d, %v; want 0, false", applied, ok)
	}
	if applied, ok := tr.TryApplyOps([]BatchOp{{BatchDelete, 1}}, res, nil); ok || applied != 0 {
		t.Fatalf("TryApplyOps delete on a sealed tree = %d, %v; want 0, false", applied, ok)
	}
	if tr.Find(4) || !tr.Find(1) {
		t.Fatal("sealed tree contents changed")
	}
	if got := tr.Keys(); !equalKeys(got, []int64{1, 2, 3}) {
		t.Fatalf("sealed tree keys = %v", got)
	}
	for _, f := range []func(){func() { tr.Insert(9) }, func() { tr.Delete(1) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("plain update on sealed tree did not panic")
				}
			}()
			f()
		}()
	}
}

// TestSealCutExcludesLaterPhases is the migration ordering contract in
// miniature: updates that slipped past the seal check committed at or
// below the cut, so snapshot-at-cut plus rebuilt tree equals the old
// tree's final state — nothing is stranded above the cut.
func TestSealCutExcludesLaterPhases(t *testing.T) {
	tr := New()
	for i := int64(0); i < 64; i++ {
		tr.Insert(i * 2)
	}
	reg := tr.Register()
	tr.Seal()
	cut := tr.Clock().Open()
	snap := tr.SnapshotAt(cut, reg)
	defer snap.Release()
	if applied, ok := tr.TryApplyOps([]BatchOp{{BatchInsert, 999}}, make([]bool, 1), nil); ok || applied != 0 {
		t.Fatal("post-seal TryApplyOps insert succeeded")
	}
	got := snap.RangeScan(MinKey, MaxKey)
	want := tr.Keys() // the sealed tree can never change again
	if !equalKeys(got, want) {
		t.Fatalf("cut snapshot %v != final sealed state %v", got, want)
	}
	re, err := BuildFromSortedKeys(tr.Clock(), got)
	if err != nil {
		t.Fatal(err)
	}
	if !equalKeys(re.Keys(), want) {
		t.Fatal("rebuilt tree diverges from sealed source")
	}
}

func ExampleBuildFromSortedKeys() {
	tr, _ := BuildFromSortedKeys(nil, []int64{1, 2, 3, 5, 8, 13})
	fmt.Println(tr.RangeScan(2, 8))
	// Output: [2 3 5 8]
}
