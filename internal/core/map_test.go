package core

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"weak"
)

// Tests for what the map adds to the set: Put-replace, values in leaves,
// and reclamation of replaced leaves.

// TestMapSequentialVsOracle: Put, Delete and Get on an unpooled,
// never-compacted map agree with a Go map, and so does a final entry scan.
func TestMapSequentialVsOracle(t *testing.T) {
	m := NewMap[int64]()
	oracle := map[int64]int64{}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20_000; i++ {
		k := int64(rng.Intn(300))
		_, had := oracle[k]
		switch rng.Intn(4) {
		case 0, 1:
			v := rng.Int63n(1000)
			if m.Put(k, v) != had {
				t.Fatalf("Put(%d) replace flag diverged at %d", k, i)
			}
			oracle[k] = v
		case 2:
			if m.Delete(k) != had {
				t.Fatalf("Delete(%d) diverged at %d", k, i)
			}
			delete(oracle, k)
		case 3:
			if v, ok := m.Get(k); ok != had || v != oracle[k] {
				t.Fatalf("Get(%d) = %d,%v want %d,%v", k, v, ok, oracle[k], had)
			}
		}
	}
	if m.Len() != len(oracle) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(oracle))
	}
	n := 0
	m.EntriesFunc(0, 300, func(k, v int64) bool {
		if want, ok := oracle[k]; !ok || v != want {
			t.Fatalf("scan entry %d=%d, oracle %d,%v", k, v, want, ok)
		}
		n++
		return true
	})
	if n != len(oracle) {
		t.Fatalf("scan saw %d entries, oracle has %d", n, len(oracle))
	}
}

// TestMapReplaceReclamation: heavy Put-replace churn (every rebind of a
// live key keeps the old leaf behind the new one's prev) is reclaimed to
// O(live set) by one quiescent Compact, whose |T_H| matches the graph.
func TestMapReplaceReclamation(t *testing.T) {
	const keys, rebinds = 64, 5_000
	m := NewMap[int]()
	for r := 0; r < rebinds; r++ {
		m.Put(int64(r%keys), r)
	}
	if before := m.VersionGraphSize(); before < rebinds/4 {
		t.Fatalf("unpruned version graph = %d after %d rebinds", before, rebinds)
	}
	cs := m.Compact()
	after := m.VersionGraphSize()
	if limit := 4*m.Len() + 16; after > limit {
		t.Fatalf("post-Compact graph = %d nodes for %d keys (limit %d)", after, m.Len(), limit)
	}
	if cs.PrunedLinks == 0 || cs.RetiredInfos == 0 || cs.LiveNodes != after {
		t.Fatalf("CompactStats = %+v, want pruning progress and LiveNodes == %d", cs, after)
	}
	// Latest bindings survive: the largest r < rebinds with r%keys == k.
	for k := 0; k < keys; k++ {
		got, ok := m.Get(int64(k))
		if want := ((rebinds-1-k)/keys)*keys + k; !ok || got != want {
			t.Fatalf("Get(%d) = %d,%v after Compact, want %d", k, got, ok, want)
		}
	}
}

// TestMapSnapshotPinsReplacedValues: a live snapshot keeps the value it
// saw readable through replace churn and Compact; Release lets the next
// pass reclaim the replaced leaves.
func TestMapSnapshotPinsReplacedValues(t *testing.T) {
	m := NewMap[string]()
	m.Put(1, "old")
	m.Put(2, "keep")
	snap := m.Snapshot()
	for i := 0; i < 2_000; i++ {
		m.Put(1, "new")
		m.Delete(2)
		m.Put(2, "keep")
	}
	m.Compact()
	if v, ok := snap.Get(1); !ok || v != "old" {
		t.Fatalf("pinned snapshot Get(1) = %q,%v, want \"old\"", v, ok)
	}
	pinned := m.VersionGraphSize()
	snap.Release()
	m.Compact()
	if reclaimed := m.VersionGraphSize(); reclaimed >= pinned {
		t.Fatalf("Release + Compact did not reclaim: %d -> %d", pinned, reclaimed)
	}
	if v, ok := m.Get(1); !ok || v != "new" {
		t.Fatalf("live Get(1) = %q,%v, want \"new\"", v, ok)
	}
}

// TestMapConcurrentReplaceMonotone: each writer owns its keys and rebinds
// them to ever larger values that encode the key, while a compactor
// recycles the replaced leaves. A reader must see every key's value never
// decrease and always carry its own key; a recycled leaf read too late
// would show up as either. Every so often the reader also takes a
// snapshot, which must list every key with such a value and read the
// same twice.
func TestMapConcurrentReplaceMonotone(t *testing.T) {
	const writers, keys = 4, 16
	m := NewMap[int64]()
	for k := int64(0); k < keys; k++ {
		m.Put(k, k)
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := int64(0); w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := keys + w; !stop.Load(); v += writers {
				m.Put(v%keys, v)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			m.Compact()
		}
	}()
	fail := func(format string, args ...any) {
		stop.Store(true)
		wg.Wait()
		t.Fatalf(format, args...)
	}
	entries := func(s *MapSnapshot[int64]) []int64 {
		var vs []int64
		s.EntriesFunc(MinKey, MaxKey, func(k, v int64) bool {
			if k != int64(len(vs)) || v%keys != k {
				fail("snapshot entry %d=%d at position %d", k, v, len(vs))
			}
			vs = append(vs, v)
			return true
		})
		return vs
	}
	last := make([]int64, keys)
	for i := 0; i < 20_000; i++ {
		k := int64(i % keys)
		v, ok := m.Get(k)
		if !ok || v%keys != k || v < last[k] {
			fail("Get(%d) = %d,%v after reading %d", k, v, ok, last[k])
		}
		last[k] = v
		if i%1000 == 0 {
			s := m.Snapshot()
			if first, second := entries(s), entries(s); len(first) != keys || !equalKeys(first, second) {
				fail("snapshot read %v, then %v", first, second)
			}
			s.Release()
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestMapCompactConcurrent: a compactor racing putters and deleters that
// share keys, while an entry scan checks its keys stay strictly ascending.
func TestMapCompactConcurrent(t *testing.T) {
	m := NewMap[int]()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				k := int64((i*7 + w*13) % 128)
				if i%3 == 2 {
					m.Delete(k)
				} else {
					m.Put(k, i)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			m.Compact()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			prev := int64(-1)
			m.EntriesFunc(0, 127, func(k int64, _ int) bool {
				if k <= prev {
					stop.Store(true)
					t.Errorf("entry scan under concurrent Compact visited %d after %d", k, prev)
					return false
				}
				prev = k
				return true
			})
		}
	}()
	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
}

// TestMapSnapshotScanConsistentUnderChurn: a writer rebinds every key k
// between k*2 and k*3, pass after pass. A snapshot's entries must each hold
// one of the two values, and two reads of the same snapshot must agree.
func TestMapSnapshotScanConsistentUnderChurn(t *testing.T) {
	const n = 200
	m := NewMap[int64]()
	for k := int64(0); k < n; k++ {
		m.Put(k, k*2)
	}
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		for mul := int64(3); !stop.Load(); mul = 5 - mul {
			for k := int64(0); k < n; k++ {
				m.Put(k, k*mul)
			}
		}
	}()
	read := func(s *MapSnapshot[int64]) []int64 {
		var vs []int64
		s.EntriesFunc(0, n-1, func(k, v int64) bool {
			if v != k*2 && v != k*3 {
				t.Errorf("snapshot entry %d=%d, want %d or %d", k, v, k*2, k*3)
			}
			vs = append(vs, v)
			return true
		})
		return vs
	}
	for i := 0; i < 50 && !t.Failed(); i++ {
		s := m.Snapshot()
		if first, second := read(s), read(s); len(first) != n || !equalKeys(first, second) {
			t.Errorf("snapshot read %d values, then a different %d", len(first), len(second))
		}
		s.Release()
	}
	stop.Store(true)
	<-done
}

// TestMapSnapshotReadAfterReleasePanicsAtCallSite: the value reads a map
// snapshot adds to the set's (Get and EntriesFunc) fail at the call site
// after Release, as Range and Len do.
func TestMapSnapshotReadAfterReleasePanicsAtCallSite(t *testing.T) {
	m := NewMap[int]()
	for k := int64(0); k < 32; k++ {
		m.Put(k, int(k))
	}
	s := m.Snapshot()
	if v, ok := s.Get(7); !ok || v != 7 || s.Released() {
		t.Fatalf("live snapshot Get(7) = %d,%v before Release", v, ok)
	}
	s.Release()
	if !s.Released() {
		t.Fatal("Released() false after Release")
	}
	mustPanicReleased(t, "Get", func() { s.Get(7) })
	mustPanicReleased(t, "EntriesFunc", func() { s.EntriesFunc(0, 10, func(int64, int) bool { return true }) })
	mustPanicReleased(t, "Range", func() { s.Range(0, 10, func(int64) bool { return true }) })
	mustPanicReleased(t, "Len", func() { s.Len() })
}

// TestPooledLeafDropsValue: a replaced leaf that Compact recycles into the
// node pool must not keep its value alive (sync.Pool keeps objects across
// one GC, so a leaf that kept its value would pin it).
func TestPooledLeafDropsValue(t *testing.T) {
	m := NewMap[*[64]byte]()
	old := new([64]byte)
	gone := weak.Make(old)
	m.Put(1, old)
	m.Put(1, new([64]byte))
	m.Compact()
	m.Compact()
	if m.Stats().PoolNodePuts == 0 {
		t.Fatal("the replaced leaf was not pooled")
	}
	runtime.GC()
	if gone.Value() != nil {
		t.Fatal("a pooled leaf still holds the value it was replaced with")
	}
}
