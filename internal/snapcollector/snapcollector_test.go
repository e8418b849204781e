package snapcollector

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/seqset"
	"repro/internal/skiplist"
)

// TestSequentialVsOracle: every operation, snap-collector scans
// included, matches the sequential oracle when run from one goroutine.
func TestSequentialVsOracle(t *testing.T) {
	s := New()
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
			if got, want := s.RangeScan(k, k+40), oracle.RangeScan(k, k+40); !slices.Equal(got, want) {
				t.Fatalf("RangeScan(%d, %d) = %v, want %v at step %d", k, k+40, got, want, i)
			}
		}
	}
	if s.Len() != oracle.Len() {
		t.Fatalf("Len = %d, want %d", s.Len(), oracle.Len())
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentSharedBalance: concurrent updates and lookups on a small
// shared key space leave exactly the keys whose successful inserts
// outnumber their successful deletes, as seen by a quiescent scan.
func TestConcurrentSharedBalance(t *testing.T) {
	s := New()
	const keyspace = 100
	var balance [keyspace + 1]atomic.Int64
	var wg sync.WaitGroup
	workers := 2 * runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 2000; i++ {
				k := int64(rng.Intn(keyspace)) + 1
				switch rng.Intn(3) {
				case 0:
					if s.Insert(k) {
						balance[k].Add(1)
					}
				case 1:
					if s.Delete(k) {
						balance[k].Add(-1)
					}
				default:
					s.Contains(k)
				}
			}
		}(w)
	}
	wg.Wait()
	var want []int64
	for k := int64(1); k <= keyspace; k++ {
		if balance[k].Load() == 1 {
			want = append(want, k)
		}
	}
	if got := s.RangeScan(1, keyspace); !slices.Equal(got, want) {
		t.Fatalf("quiescent scan = %v, want %v", got, want)
	}
	if s.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
}

func TestBoundaryKeys(t *testing.T) {
	s := New()
	if !s.Insert(skiplist.MaxKey) || !s.Contains(skiplist.MaxKey) || !s.Delete(skiplist.MaxKey) {
		t.Fatal("MaxKey roundtrip failed")
	}
}

func TestQuiescentScan(t *testing.T) {
	s := New()
	oracle := seqset.New()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 3000; i++ {
		k := int64(rng.Intn(300)) + 1
		if rng.Intn(2) == 0 {
			if s.Insert(k) != oracle.Insert(k) {
				t.Fatalf("Insert(%d) diverged", k)
			}
		} else {
			if s.Delete(k) != oracle.Delete(k) {
				t.Fatalf("Delete(%d) diverged", k)
			}
		}
	}
	got := s.RangeScan(1, 300)
	want := oracle.RangeScan(1, 300)
	if len(got) != len(want) {
		t.Fatalf("scan len %d, want %d\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("scan[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	if got := s.RangeScan(50, 100); len(got) != len(oracle.RangeScan(50, 100)) {
		t.Fatalf("partial scan mismatch")
	}
}

func TestScanSeesReportedInserts(t *testing.T) {
	// An insert that linearizes behind the scan pointer but reports while
	// the collector is active must still appear in the snapshot. We force
	// the situation statistically: many scans with concurrent inserts into
	// the already-scanned prefix region.
	s := New()
	for i := int64(100); i < 200; i++ {
		s.Insert(i)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		k := int64(1)
		for !stop.Load() {
			s.Insert(k)
			s.Delete(k)
			k = k%50 + 1
		}
	}()
	for i := 0; i < 200; i++ {
		keys := s.RangeScan(1, 300)
		// Well-formedness: sorted unique, and the stable region intact.
		cnt := 0
		for j, k := range keys {
			if j > 0 && keys[j-1] >= k {
				t.Fatalf("scan not sorted-unique: %v", keys)
			}
			if k >= 100 && k < 200 {
				cnt++
			}
		}
		if cnt != 100 {
			t.Fatalf("scan lost stable keys: %d of 100 present", cnt)
		}
	}
	stop.Store(true)
	wg.Wait()
}

func TestConcurrentScansShareNothing(t *testing.T) {
	s := New()
	for i := int64(1); i <= 500; i++ {
		s.Insert(i)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if got := s.RangeScan(1, 500); len(got) != 500 {
					t.Errorf("quiescent concurrent scan saw %d keys", len(got))
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestRegistryRegisterUnregister(t *testing.T) {
	s := New()
	c1, c2 := &collector{}, &collector{}
	s.register(c1)
	s.register(c2)
	if got := len(*s.reg.Load()); got != 2 {
		t.Fatalf("registry size %d, want 2", got)
	}
	s.unregister(c1)
	if got := *s.reg.Load(); len(got) != 1 || got[0] != c2 {
		t.Fatalf("registry after unregister: %v", got)
	}
	s.unregister(c2)
	if got := len(*s.reg.Load()); got != 0 {
		t.Fatalf("registry size %d, want 0", got)
	}
}

func TestDedupe(t *testing.T) {
	cases := []struct{ in, want []int64 }{
		{nil, nil},
		{[]int64{1}, []int64{1}},
		{[]int64{1, 1}, []int64{1}},
		{[]int64{1, 2, 2, 3, 3, 3}, []int64{1, 2, 3}},
	}
	for _, c := range cases {
		got := dedupe(append([]int64(nil), c.in...))
		if len(got) != len(c.want) {
			t.Fatalf("dedupe(%v) = %v", c.in, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("dedupe(%v) = %v", c.in, got)
			}
		}
	}
}

func TestLenAndKeys(t *testing.T) {
	s := New()
	for i := int64(1); i <= 10; i++ {
		s.Insert(i * 10)
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.Find(50) || s.Find(55) {
		t.Fatal("find wrong")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
