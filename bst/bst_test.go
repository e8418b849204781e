package bst_test

import (
	"math/rand"
	"sync"
	"testing"

	"repro/bst"
	"repro/internal/lockbst"
	"repro/internal/nbbst"
	"repro/internal/seqset"
	"repro/internal/skiplist"
	"repro/internal/snapcollector"
)

// set is the point-and-scan surface the table tests below run on.
type set interface {
	Insert(k int64) bool
	Delete(k int64) bool
	Contains(k int64) bool
	RangeScan(a, b int64) []int64
	Len() int
}

// maps enumerates the public constructors of the package's one set
// type: the paper's single tree and a map whose range shards split the
// tests' keys.
func maps() map[string]func() *bst.ShardedMap {
	return map[string]func() *bst.ShardedMap{
		"pnbbst":  bst.New,
		"sharded": func() *bst.ShardedMap { return bst.NewShardedRange(0, 255, 4) },
	}
}

// allSets adds the baseline structures the benchmarks compare against to
// maps, so the same sequential and quiescent checks hold for all of them.
// The nbbst and skiplist scans are only quiescently consistent, which is
// all these tests read.
func allSets() map[string]func() set {
	all := map[string]func() set{
		"nbbst":         func() set { return unsafeScan[*nbbst.Tree]{nbbst.New()} },
		"locked":        func() set { return lockbst.New() },
		"skiplist":      func() set { return unsafeScan[*skiplist.List]{skiplist.New()} },
		"snapcollector": func() set { return snapcollector.New() },
	}
	for name, mk := range maps() {
		all[name] = func() set { return mk() }
	}
	return all
}

// unsafeScan serves RangeScan from a baseline's non-linearizable
// RangeScanUnsafe.
type unsafeScan[T interface {
	Insert(k int64) bool
	Delete(k int64) bool
	Contains(k int64) bool
	RangeScanUnsafe(a, b int64) []int64
	Len() int
}] struct{ s T }

func (u unsafeScan[T]) Insert(k int64) bool          { return u.s.Insert(k) }
func (u unsafeScan[T]) Delete(k int64) bool          { return u.s.Delete(k) }
func (u unsafeScan[T]) Contains(k int64) bool        { return u.s.Contains(k) }
func (u unsafeScan[T]) RangeScan(a, b int64) []int64 { return u.s.RangeScanUnsafe(a, b) }
func (u unsafeScan[T]) Len() int                     { return u.s.Len() }

func TestAllImplementationsAgainstOracle(t *testing.T) {
	for name, mk := range allSets() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			oracle := seqset.New()
			rng := rand.New(rand.NewSource(77))
			for i := 0; i < 8000; i++ {
				k := int64(rng.Intn(250)) + 1
				switch rng.Intn(4) {
				case 0:
					if s.Insert(k) != oracle.Insert(k) {
						t.Fatalf("Insert(%d) diverged at step %d", k, i)
					}
				case 1:
					if s.Delete(k) != oracle.Delete(k) {
						t.Fatalf("Delete(%d) diverged at step %d", k, i)
					}
				case 2:
					if s.Contains(k) != oracle.Contains(k) {
						t.Fatalf("Contains(%d) diverged at step %d", k, i)
					}
				case 3:
					got := s.RangeScan(k, k+40)
					want := oracle.RangeScan(k, k+40)
					if len(got) != len(want) {
						t.Fatalf("RangeScan(%d,%d) len %d, want %d", k, k+40, len(got), len(want))
					}
					for j := range got {
						if got[j] != want[j] {
							t.Fatalf("RangeScan mismatch at %d", j)
						}
					}
				}
			}
			if s.Len() != oracle.Len() {
				t.Fatalf("Len = %d, want %d", s.Len(), oracle.Len())
			}
		})
	}
}

func TestTreeFacadeExtras(t *testing.T) {
	tr := bst.New()
	for i := int64(0); i < 100; i++ {
		tr.Insert(i)
	}
	if got := tr.RangeCount(10, 19); got != 10 {
		t.Fatalf("RangeCount = %d", got)
	}
	var first []int64
	tr.RangeScanFunc(0, 99, func(k int64) bool {
		first = append(first, k)
		return len(first) < 3
	})
	if len(first) != 3 || first[0] != 0 || first[2] != 2 {
		t.Fatalf("RangeScanFunc early stop = %v", first)
	}
	if got := tr.Keys(); len(got) != 100 {
		t.Fatalf("Keys len = %d", len(got))
	}
	snap := tr.Snapshot()
	tr.Delete(5)
	if !snap.Contains(5) || tr.Contains(5) {
		t.Fatal("snapshot/live divergence wrong")
	}
	if snap.Len() != 100 || tr.Len() != 99 {
		t.Fatalf("lens: snap %d live %d", snap.Len(), tr.Len())
	}
	st := tr.Stats()
	if st.Scans == 0 {
		t.Fatal("stats did not count the snapshot")
	}
	tr.ResetStats()
	if tr.Stats().Scans != 0 {
		t.Fatal("ResetStats did not clear")
	}
	// Ordered queries through the facade (5 was deleted above).
	if g, ok := tr.Min(); !ok || g != 0 {
		t.Fatalf("Min = %d,%v", g, ok)
	}
	if g, ok := tr.Max(); !ok || g != 99 {
		t.Fatalf("Max = %d,%v", g, ok)
	}
	if g, ok := tr.Succ(5); !ok || g != 6 {
		t.Fatalf("Succ(5) = %d,%v", g, ok)
	}
	if g, ok := tr.Pred(5); !ok || g != 4 {
		t.Fatalf("Pred(5) = %d,%v", g, ok)
	}
}

// TestConcurrentThroughInterface runs concurrent point updates through
// each set, then checks Len against a full scan.
func TestConcurrentThroughInterface(t *testing.T) {
	for name, mk := range allSets() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for i := 0; i < 2000; i++ {
						k := int64(rng.Intn(100)) + 1
						switch rng.Intn(3) {
						case 0:
							s.Insert(k)
						case 1:
							s.Delete(k)
						case 2:
							s.Contains(k)
						}
					}
				}(w)
			}
			wg.Wait()
			// Sanity at quiescence: Len agrees with a full scan.
			if got, scan := s.Len(), s.RangeScan(bst.MinKey+1, bst.MaxKey); got != len(scan) {
				t.Fatalf("Len %d != scan %d", got, len(scan))
			}
		})
	}
}

func TestMaxKeyRoundTripAllSets(t *testing.T) {
	for name, mk := range allSets() {
		t.Run(name, func(t *testing.T) {
			s := mk()
			if !s.Insert(bst.MaxKey) || !s.Contains(bst.MaxKey) || !s.Delete(bst.MaxKey) {
				t.Fatal("MaxKey roundtrip failed")
			}
		})
	}
}
