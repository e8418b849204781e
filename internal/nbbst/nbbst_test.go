package nbbst

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
	if !tr.Delete(1) || tr.Delete(1) {
		t.Fatal("delete semantics")
	}
	if tr.Find(1) {
		t.Fatal("find after delete")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialVsOracle(t *testing.T) {
	tr := New()
	oracle := seqset.New()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 20000; i++ {
		k := int64(rng.Intn(400))
		switch rng.Intn(4) {
		case 0:
			if tr.Insert(k) != oracle.Insert(k) {
				t.Fatalf("Insert(%d) diverged at step %d", k, i)
			}
		case 1:
			if tr.Delete(k) != oracle.Delete(k) {
				t.Fatalf("Delete(%d) diverged at step %d", k, i)
			}
		case 2:
			if tr.Find(k) != oracle.Contains(k) {
				t.Fatalf("Find(%d) diverged at step %d", k, i)
			}
		case 3:
			// Sequentially the best-effort scan is exact.
			if got, want := tr.RangeScanUnsafe(k, k+40), oracle.RangeScan(k, k+40); !slices.Equal(got, want) {
				t.Fatalf("RangeScanUnsafe(%d, %d) = %v, want %v at step %d", k, k+40, got, want, i)
			}
		}
	}
	got, want := tr.Keys(), oracle.Keys()
	if len(got) != len(want) {
		t.Fatalf("len %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("key[%d] = %d, want %d", i, got[i], want[i])
		}
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
			switch raw[i] % 3 {
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
			}
		}
		return tr.CheckInvariants() == nil && tr.Len() == oracle.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentDisjoint(t *testing.T) {
	tr := New()
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
			base := int64(w * span)
			oracle := seqset.New()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 6000; i++ {
				k := base + int64(rng.Intn(span))
				switch rng.Intn(3) {
				case 0:
					if tr.Insert(k) != oracle.Insert(k) {
						t.Errorf("w%d Insert(%d) diverged", w, k)
						return
					}
				case 1:
					if tr.Delete(k) != oracle.Delete(k) {
						t.Errorf("w%d Delete(%d) diverged", w, k)
						return
					}
				case 2:
					if tr.Find(k) != oracle.Contains(k) {
						t.Errorf("w%d Find(%d) diverged", w, k)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSharedBalance(t *testing.T) {
	tr := New()
	const keyspace = 48
	var balance [keyspace]atomic.Int64
	var wg sync.WaitGroup
	workers := 2 * runtime.GOMAXPROCS(0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 5000; i++ {
				k := int64(rng.Intn(keyspace))
				if rng.Intn(2) == 0 {
					if tr.Insert(k) {
						balance[k].Add(1)
					}
				} else {
					if tr.Delete(k) {
						balance[k].Add(-1)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	var want []int64
	for k := int64(0); k < keyspace; k++ {
		b := balance[k].Load()
		present := tr.Find(k)
		if present && b != 1 || !present && b != 0 {
			t.Errorf("key %d: balance %d, present %v", k, b, present)
		}
		if b == 1 {
			want = append(want, k)
		}
	}
	// At quiescence the best-effort scan and Len agree with the balances.
	if got := tr.RangeScanUnsafe(0, keyspace-1); !slices.Equal(got, want) {
		t.Errorf("quiescent scan = %v, want %v", got, want)
	}
	if tr.Len() != len(want) {
		t.Errorf("Len = %d, want %d", tr.Len(), len(want))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHighContentionSingleKey(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	var balance atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4000; i++ {
				if (i+w)%2 == 0 {
					if tr.Insert(3) {
						balance.Add(1)
					}
				} else if tr.Delete(3) {
					balance.Add(-1)
				}
			}
		}(w)
	}
	wg.Wait()
	b := balance.Load()
	if present := tr.Find(3); present && b != 1 || !present && b != 0 {
		t.Fatalf("balance %d present %v", b, tr.Find(3))
	}
}

func TestRangeScanQuiescent(t *testing.T) {
	tr := New()
	for i := int64(0); i < 100; i += 2 {
		tr.Insert(i)
	}
	got := tr.RangeScanUnsafe(10, 20)
	want := []int64{10, 12, 14, 16, 18, 20}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
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
