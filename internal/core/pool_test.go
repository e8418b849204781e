package core

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"testing"
)

// Whitebox tests for post-horizon recycling (pool.go): the cut → limbo →
// drain pipeline, the pin gating, the poison sentinel, and the
// allocation budgets the flat layout and the pools are supposed to buy.

func TestPoolRecyclingRoundTrip(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // keep sync.Pool stock deterministic
	tr := New()
	if !tr.PoolingEnabled() {
		t.Fatal("pooling should default to on")
	}
	const n = 400
	for i := int64(0); i < n; i++ {
		tr.Insert(i)
	}
	for i := int64(0); i < n; i++ {
		tr.Delete(i)
	}
	cs := tr.Compact()
	if cs.GarbageNodes == 0 {
		t.Fatalf("churn left no garbage: %+v", cs)
	}
	// No pins were held across the cuts (quiescent tree), so the batch
	// must drain within the same pass.
	if cs.RecycledNodes == 0 {
		t.Fatalf("quiescent batch did not drain: %+v", cs)
	}
	if got := tr.limboSize(); got != 0 {
		t.Fatalf("limbo not empty after quiescent Compact: %d batches", got)
	}
	st := tr.Stats()
	if st.PoolNodePuts == 0 {
		t.Fatal("no nodes entered the pool")
	}
	// A second churn burst must draw from the pool, and the tree built
	// from recycled memory must be exactly right.
	for i := int64(0); i < n; i++ {
		tr.Insert(i)
	}
	st = tr.Stats()
	if st.PoolNodeHits == 0 {
		t.Fatal("rebuild after recycling served no pooled nodes")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	keys := tr.Keys()
	if len(keys) != n {
		t.Fatalf("rebuilt tree has %d keys, want %d", len(keys), n)
	}
	for i, k := range keys {
		if k != int64(i) {
			t.Fatalf("keys[%d] = %d, want %d", i, k, i)
		}
	}
}

func TestPoolPinsBlockRecycling(t *testing.T) {
	tr := New()
	for i := int64(0); i < 100; i++ {
		tr.Insert(i)
	}
	for i := int64(0); i < 100; i++ {
		tr.Delete(i)
	}
	// Simulate an in-flight unregistered traversal that predates the cuts.
	s := tr.pool.pins.enter(7)
	cs := tr.Compact()
	if cs.GarbageNodes == 0 {
		t.Fatalf("churn left no garbage: %+v", cs)
	}
	if cs.RecycledNodes != 0 {
		t.Fatalf("recycled %d nodes while a traversal was pinned", cs.RecycledNodes)
	}
	if tr.limboSize() == 0 {
		t.Fatal("garbage not held in limbo while pinned")
	}
	// More passes must keep waiting as long as the pin is held.
	if cs := tr.Compact(); cs.RecycledNodes != 0 {
		t.Fatalf("second pass recycled %d nodes under a live pin", cs.RecycledNodes)
	}
	tr.pool.pins.exit(s)
	cs = tr.Compact()
	if cs.RecycledNodes == 0 {
		t.Fatal("batch did not drain after the pin was released")
	}
	if got := tr.limboSize(); got != 0 {
		t.Fatalf("limbo not empty after drain: %d batches", got)
	}
}

// reachableAt collects every node a registered reader at phase seq can
// dereference: all chain members it steps through (head down to the first
// phase-<=seq version) plus the children it recurses into.
func reachableAt(tr *Tree, seq uint64) map[*node[struct{}]]struct{} {
	reach := make(map[*node[struct{}]]struct{})
	var walk func(n *node[struct{}])
	chase := func(head *node[struct{}]) *node[struct{}] {
		l := head
		for l != nil && l.seqNum() > seq {
			reach[l] = struct{}{} // dereferenced on the way down the chain
			l = l.prev.Load()
		}
		return l
	}
	walk = func(n *node[struct{}]) {
		if n == nil {
			return
		}
		if _, ok := reach[n]; ok {
			return
		}
		reach[n] = struct{}{}
		if n.isLeaf() {
			return
		}
		walk(chase(n.left.Load()))
		walk(chase(n.right.Load()))
	}
	walk(tr.root)
	return reach
}

// TestRecycledNeverReachableFromSnapshot is the poison whitebox check the
// allocation overhaul hinges on: the set of nodes Compact hands to the
// recycler must be disjoint from everything a live registered reader can
// still dereference at its phase. A violation would eventually resurface
// as a loud mustReadChild panic, but this test catches it at the source.
func TestRecycledNeverReachableFromSnapshot(t *testing.T) {
	tr := New()
	const n = 200
	for i := int64(0); i < n; i++ {
		tr.Insert(i)
	}
	snap := tr.Snapshot()
	for i := int64(0); i < n; i++ { // churn past the snapshot's phase
		tr.Delete(i)
	}
	for i := int64(n); i < 2*n; i++ {
		tr.Insert(i)
	}
	// Hold a pin so this pass's garbage stays inspectable in limbo
	// instead of draining straight into the pool.
	s := tr.pool.pins.enter(3)
	tr.Compact()
	limboNodes := make(map[*node[struct{}]]struct{})
	tr.pool.compactMu.Lock()
	for _, b := range tr.pool.limbo {
		for _, g := range b.nodes {
			limboNodes[g] = struct{}{}
		}
	}
	tr.pool.compactMu.Unlock()
	tr.pool.pins.exit(s)
	if len(limboNodes) == 0 {
		t.Fatal("expected limbo garbage while pinned")
	}
	reach := reachableAt(tr, snap.seq)
	for g := range limboNodes {
		if _, ok := reach[g]; ok {
			t.Fatalf("limbo batch contains node %p (key %d, seq %d) reachable by a live snapshot at phase %d",
				g, g.key, g.seqNum(), snap.seq)
		}
	}
	// The snapshot must still read its full frozen view after the
	// batch drains (mustReadChild fails loudly if recycling overran it).
	tr.Compact()
	keys := snap.Keys()
	if len(keys) != n {
		t.Fatalf("snapshot reads %d keys after recycling, want %d", len(keys), n)
	}
	for i, k := range keys {
		if k != int64(i) {
			t.Fatalf("snapshot keys[%d] = %d, want %d", i, k, i)
		}
	}
	snap.Release()
}

func TestPoisonedReadFailsLoudly(t *testing.T) {
	tr := New()
	poisoned := &node[struct{}]{}
	tr.poisonAndPutNode(poisoned) // keeps our reference; stamps the sentinel
	p := &node[struct{}]{key: 10}
	p.update.Store(t_dummy(tr))
	p.left.Store(poisoned)
	defer func() {
		if recover() == nil {
			t.Fatal("mustReadChild returned instead of panicking on a poisoned node")
		}
	}()
	mustReadChild(p, true, poisonSeq)
}

// t_dummy exposes the tree's dummy descriptor to whitebox tests.
func t_dummy(tr *Tree) *descriptor[struct{}] { return tr.dummy }

func TestAllocBudgetsUnpooled(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race detector")
	}
	tr := New()
	tr.SetPooling(false)
	for i := int64(0); i < 1024; i += 2 {
		tr.Insert(i)
	}
	// Contains on a quiescent tree is allocation-free.
	if got := testing.AllocsPerRun(200, func() { tr.Find(511) }); got != 0 {
		t.Errorf("Contains allocs/op = %v, want 0", got)
	}
	// Insert with the flat layout is 3 nodes + 1 info. Both budgets include
	// the retire-stack push, which is intrusive and must allocate nothing.
	k := int64(100000)
	if got := testing.AllocsPerRun(200, func() { tr.Insert(k); k++ }); got > 4 {
		t.Errorf("Insert allocs/op = %v, want <= 4 (3 nodes + 1 info)", got)
	}
	// Delete is 1 sibling copy + 1 info.
	d := int64(100000)
	if got := testing.AllocsPerRun(200, func() { tr.Delete(d); d++ }); got > 2 {
		t.Errorf("Delete allocs/op = %v, want <= 2 (1 node + 1 info)", got)
	}
	m := NewMap[int64]()
	m.SetPooling(false)
	for i := int64(0); i < 1024; i += 2 {
		m.Put(i, i)
	}
	// Put on a present key is 1 replacement leaf + 1 info.
	v := int64(0)
	if got := testing.AllocsPerRun(200, func() { m.Put(v%1024&^1, v); v++ }); got > 2 {
		t.Errorf("Put-replace allocs/op = %v, want <= 2 (1 leaf + 1 info)", got)
	}
	// Scans allocate nothing, even with the visitor closure built per call.
	snap := tr.Snapshot()
	defer snap.Release()
	scans := map[string]func(){
		"RangeScanFunc":  func() { n := 0; tr.RangeScanFunc(0, 1023, func(int64) bool { n++; return true }) },
		"Snapshot.Range": func() { n := 0; snap.Range(0, 1023, func(int64) bool { n++; return true }) },
		"EntriesFunc":    func() { s := int64(0); m.EntriesFunc(0, 1023, func(_, v int64) bool { s += v; return true }) },
	}
	for name, scan := range scans {
		if got := testing.AllocsPerRun(100, scan); got != 0 {
			t.Errorf("%s allocs/call = %v, want 0", name, got)
		}
	}
}

// TestPoolingHalvesUpdateAllocs: a warm pooled Insert+Delete pair
// allocates nothing — its nodes, its info bodies and its info headers
// all come from the pools — where the unpooled pair allocates six
// objects. The count is exact: every malloc of the 300 measured pairs.
func TestPoolingHalvesUpdateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a GC would clear the pools mid-measure
	// One P, as testing.AllocsPerRun uses: the pools' per-P stock stays
	// where Compact put it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const keys, pairs = 1 << 10, 300
	measure := func(pooling bool) float64 {
		tr := New()
		tr.SetPooling(pooling)
		for i := int64(0); i < keys; i++ {
			tr.Insert(i)
		}
		for r := 0; r < 4; r++ { // churn warmup: stocks the pools when on
			for i := int64(0); i < keys; i += 2 {
				tr.Delete(i)
			}
			for i := int64(0); i < keys; i += 2 {
				tr.Insert(i)
			}
			tr.Compact()
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for k := int64(0); k < pairs; k++ {
			tr.Delete(k % keys)
			tr.Insert(k % keys)
		}
		runtime.ReadMemStats(&ms)
		return float64(ms.Mallocs-before) / pairs
	}
	unpooled := measure(false)
	pooled := measure(true)
	if pooled != 0 {
		t.Errorf("pooled churn = %.3f allocs/pair, unpooled = %.2f; want 0: nodes, bodies and headers all from the pools", pooled, unpooled)
	}
	if unpooled != 6 {
		t.Errorf("unpooled churn = %.3f allocs/pair, want 6 (4 nodes + 2 infos)", unpooled)
	}
}

// TestPoolingModelChurn reuses recycled memory thousands of times against
// a model oracle, on a map so that Put-replace and the values ride along:
// any ABA slip, incomplete poisoning or stale value shows up as a wrong
// answer or a broken invariant.
func TestPoolingModelChurn(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(1))
	tr := NewMap[int64]()
	model := make(map[int64]int64) // Insert binds the zero value
	iters := 20000
	if testing.Short() {
		iters = 4000
	}
	for i := 0; i < iters; i++ {
		k := int64(rng.Intn(200))
		_, had := model[k]
		switch rng.Intn(4) {
		case 0:
			if got := tr.Insert(k); got == had {
				t.Fatalf("op %d: Insert(%d) = %v, want %v", i, k, got, !had)
			}
			if !had {
				model[k] = 0
			}
		case 1:
			if got := tr.Delete(k); got != had {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", i, k, got, had)
			}
			delete(model, k)
		case 2:
			if got := tr.Put(k, int64(i)); got != had {
				t.Fatalf("op %d: Put(%d) replaced = %v, want %v", i, k, got, had)
			}
			model[k] = int64(i)
		default:
			if got, ok := tr.Get(k); ok != had || got != model[k] {
				t.Fatalf("op %d: Get(%d) = %d,%v, want %d,%v", i, k, got, ok, model[k], had)
			}
		}
		if i%256 == 255 {
			tr.Compact()
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := make([]int64, 0, len(model))
	for k := range model {
		want = append(want, k)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	var got []int64
	tr.EntriesFunc(MinKey, MaxKey, func(k, v int64) bool {
		if v != model[k] {
			t.Fatalf("entry %d=%d, model %d", k, v, model[k])
		}
		got = append(got, k)
		return true
	})
	if !equalKeys(got, want) {
		t.Fatalf("keys %v, model %v", got, want)
	}
	if st := tr.Stats(); st.PoolNodeHits == 0 {
		t.Error("model churn never drew from the pool")
	}
}

// TestPoolingConcurrentChurnWithCompact races updates, snapshot readers
// and a spinning compactor with pooling on — the stress counterpart of
// the reclaim tests. mustReadChild turns any horizon violation by the
// recycler into a panic, failing the round loudly.
func TestPoolingConcurrentChurnWithCompact(t *testing.T) {
	tr := New()
	iters := 3000
	if testing.Short() {
		iters = 500
	}
	stop := make(chan struct{})
	var compWG sync.WaitGroup
	compWG.Add(1)
	go func() {
		defer compWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tr.Compact()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < iters; i++ {
				k := int64(rng.Intn(128))
				switch rng.Intn(3) {
				case 0:
					tr.Insert(k)
				case 1:
					tr.Delete(k)
				default:
					tr.Find(k)
				}
			}
		}(w)
	}
	// Registered readers throughout: each snapshot's view must stay
	// sorted and duplicate-free however hard the recycler churns.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters/30; i++ {
			s := tr.Snapshot()
			keys := s.Keys()
			for j := 1; j < len(keys); j++ {
				if keys[j-1] >= keys[j] {
					t.Errorf("snapshot keys out of order: %d before %d", keys[j-1], keys[j])
					break
				}
			}
			s.Release()
		}
	}()
	wg.Wait()
	close(stop)
	compWG.Wait()
	// A quiescent pass drains whatever limbo the concurrent passes left
	// (no pins are held now), so recycling must have happened by here.
	tr.Compact()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := tr.Stats()
	if st.PoolNodePuts == 0 {
		t.Error("concurrent churn round recycled nothing")
	}
}
