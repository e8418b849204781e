package lockbst

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/seqset"
)

func TestBasic(t *testing.T) {
	tr := New()
	if tr.Find(1) {
		t.Fatal("empty tree has 1")
	}
	if !tr.Insert(1) || tr.Insert(1) {
		t.Fatal("insert semantics")
	}
	if !tr.Find(1) {
		t.Fatal("find after insert")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if !tr.Delete(1) || tr.Delete(1) {
		t.Fatal("delete semantics")
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after delete", tr.Len())
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOracle(t *testing.T) {
	f := func(raw []byte) bool {
		tr := New()
		oracle := seqset.New()
		for i := 0; i+1 < len(raw); i += 2 {
			k := int64(raw[i+1] % 64)
			switch raw[i] % 4 {
			case 0:
				if tr.Insert(k) != oracle.Insert(k) {
					return false
				}
			case 1:
				if tr.Delete(k) != oracle.Delete(k) {
					return false
				}
			case 2:
				if tr.Find(k) != oracle.Contains(k) {
					return false
				}
			case 3:
				got := tr.RangeScan(k, k+10)
				want := oracle.RangeScan(k, k+10)
				if len(got) != len(want) {
					return false
				}
				for j := range got {
					if got[j] != want[j] {
						return false
					}
				}
			}
		}
		return tr.CheckInvariants() == nil && tr.Len() == oracle.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentMixed(t *testing.T) {
	tr := New()
	var stop atomic.Bool
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 5000; i++ {
				k := int64(rng.Intn(200))
				switch rng.Intn(4) {
				case 0:
					tr.Insert(k)
				case 1:
					tr.Delete(k)
				case 2:
					tr.Find(k)
				case 3:
					keys := tr.RangeScan(k, k+20)
					for j := 1; j < len(keys); j++ {
						if keys[j] <= keys[j-1] {
							t.Errorf("scan not sorted")
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Len keeps its own count; at quiescence it must match a full scan.
	if got, scan := tr.Len(), tr.Keys(); got != len(scan) {
		t.Fatalf("Len %d != scan %d", got, len(scan))
	}
}

func TestBoundaryKeys(t *testing.T) {
	tr := New()
	if !tr.Insert(MaxKey) || !tr.Find(MaxKey) || !tr.Delete(MaxKey) {
		t.Fatal("MaxKey roundtrip failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("sentinel key did not panic")
		}
	}()
	tr.Insert(MaxKey + 1)
}

func TestScanBlocksConsistently(t *testing.T) {
	// Monotone prefix property holds trivially for the lock tree; check it
	// as a sanity baseline for the shared test methodology.
	tr := New()
	const n = 3000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := int64(0); i < n; i++ {
			tr.Insert(i)
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		keys := tr.RangeScan(0, n-1)
		for i := 1; i < len(keys); i++ {
			if keys[i] != keys[i-1]+1 {
				t.Fatalf("gap in lock-tree scan: %d then %d", keys[i-1], keys[i])
			}
		}
	}
}

func TestRangeCountAndFunc(t *testing.T) {
	tr := New()
	for i := int64(0); i < 100; i++ {
		tr.Insert(i)
	}
	if got := tr.RangeCount(25, 74); got != 50 {
		t.Fatalf("RangeCount = %d, want 50", got)
	}
	n := 0
	tr.RangeScanFunc(0, 99, func(int64) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("early stop visited %d", n)
	}
	if got := tr.RangeScan(10, 5); got != nil {
		t.Fatalf("inverted range = %v", got)
	}
}
