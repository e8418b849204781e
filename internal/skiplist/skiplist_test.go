package skiplist

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/seqset"
)

func TestBasic(t *testing.T) {
	s := New()
	if s.Find(1) {
		t.Fatal("empty list has 1")
	}
	if !s.Insert(1) || s.Insert(1) {
		t.Fatal("insert semantics")
	}
	if !s.Find(1) {
		t.Fatal("find after insert")
	}
	if !s.Delete(1) || s.Delete(1) {
		t.Fatal("delete semantics")
	}
	if s.Find(1) {
		t.Fatal("find after delete")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialVsOracle(t *testing.T) {
	s := New()
	oracle := seqset.New()
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 20000; i++ {
		k := int64(rng.Intn(400)) + 1
		switch rng.Intn(4) {
		case 0:
			if s.Insert(k) != oracle.Insert(k) {
				t.Fatalf("Insert(%d) diverged at %d", k, i)
			}
		case 1:
			if s.Delete(k) != oracle.Delete(k) {
				t.Fatalf("Delete(%d) diverged at %d", k, i)
			}
		case 2:
			if s.Find(k) != oracle.Contains(k) {
				t.Fatalf("Find(%d) diverged at %d", k, i)
			}
		case 3:
			// Sequentially the best-effort scan is exact.
			if got, want := s.RangeScanUnsafe(k, k+40), oracle.RangeScan(k, k+40); !slices.Equal(got, want) {
				t.Fatalf("RangeScanUnsafe(%d, %d) = %v, want %v at step %d", k, k+40, got, want, i)
			}
		}
	}
	got, want := s.Keys(), oracle.Keys()
	if len(got) != len(want) {
		t.Fatalf("len %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("key[%d] = %d want %d", i, got[i], want[i])
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestQuickOracle(t *testing.T) {
	f := func(raw []byte) bool {
		s := New()
		oracle := seqset.New()
		for i := 0; i+1 < len(raw); i += 2 {
			k := int64(raw[i+1]%64) + 1
			switch raw[i] % 3 {
			case 0:
				if s.Insert(k) != oracle.Insert(k) {
					return false
				}
			case 1:
				if s.Delete(k) != oracle.Delete(k) {
					return false
				}
			case 2:
				if s.Find(k) != oracle.Contains(k) {
					return false
				}
			}
		}
		return s.CheckInvariants() == nil && s.Len() == oracle.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentDisjoint(t *testing.T) {
	s := New()
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	const span = 300
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w*span) + 1
			oracle := seqset.New()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 6000; i++ {
				k := base + int64(rng.Intn(span))
				switch rng.Intn(3) {
				case 0:
					if s.Insert(k) != oracle.Insert(k) {
						t.Errorf("w%d Insert(%d) diverged", w, k)
						return
					}
				case 1:
					if s.Delete(k) != oracle.Delete(k) {
						t.Errorf("w%d Delete(%d) diverged", w, k)
						return
					}
				case 2:
					if s.Find(k) != oracle.Contains(k) {
						t.Errorf("w%d Find(%d) diverged", w, k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSharedBalance(t *testing.T) {
	s := New()
	const keyspace = 48
	var balance [keyspace + 1]atomic.Int64
	var wg sync.WaitGroup
	workers := 2 * runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 5000; i++ {
				k := int64(rng.Intn(keyspace)) + 1
				if rng.Intn(2) == 0 {
					if s.Insert(k) {
						balance[k].Add(1)
					}
				} else {
					if s.Delete(k) {
						balance[k].Add(-1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var want []int64
	for k := int64(1); k <= keyspace; k++ {
		b := balance[k].Load()
		present := s.Find(k)
		if present && b != 1 || !present && b != 0 {
			t.Errorf("key %d: balance %d, present %v", k, b, present)
		}
		if b == 1 {
			want = append(want, k)
		}
	}
	// At quiescence the best-effort scan and Len agree with the balances.
	if got := s.RangeScanUnsafe(1, keyspace); !slices.Equal(got, want) {
		t.Errorf("quiescent scan = %v, want %v", got, want)
	}
	if s.Len() != len(want) {
		t.Errorf("Len = %d, want %d", s.Len(), len(want))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBoundaryKeys(t *testing.T) {
	s := New()
	if !s.Insert(MaxKey) || !s.Find(MaxKey) || !s.Delete(MaxKey) {
		t.Fatal("MaxKey roundtrip failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("sentinel key did not panic")
		}
	}()
	s.Insert(MaxKey + 1)
}

func TestRangeScanQuiescent(t *testing.T) {
	s := New()
	for i := int64(2); i <= 100; i += 2 {
		s.Insert(i)
	}
	got := s.RangeScanUnsafe(10, 20)
	want := []int64{10, 12, 14, 16, 18, 20}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestReporterHooks(t *testing.T) {
	s := New()
	var ins, del atomic.Int64
	s.SetReporter(countReporter{&ins, &del})
	s.Insert(5)
	s.Insert(5) // failed insert: no report
	s.Delete(5)
	s.Delete(5) // failed delete: no report
	s.ClearReporter()
	s.Insert(6) // after clear: no report
	if ins.Load() != 1 || del.Load() != 1 {
		t.Fatalf("reports ins=%d del=%d, want 1/1", ins.Load(), del.Load())
	}
}

type countReporter struct{ ins, del *atomic.Int64 }

func (c countReporter) ReportInsert(*Node) { c.ins.Add(1) }
func (c countReporter) ReportDelete(*Node) { c.del.Add(1) }

func TestLevelDistribution(t *testing.T) {
	s := New()
	levels := map[int]int{}
	for i := 0; i < 10000; i++ {
		levels[s.randomLevel()]++
	}
	if levels[0] < 4000 || levels[0] > 6000 {
		t.Fatalf("level-0 frequency %d out of geometric range", levels[0])
	}
	if levels[1] < 1800 || levels[1] > 3200 {
		t.Fatalf("level-1 frequency %d out of geometric range", levels[1])
	}
}
