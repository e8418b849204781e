package core

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/workload"
)

// Tests for info header reuse (pool.go): a header is pooled only once no
// node names it and two pin drains have passed, and the second drain is
// what keeps a suspended helper's stale freeze CAS from succeeding.

// takePooledHeaders empties the header pool and returns what it held;
// exact with one P and the GC off, and without the race detector.
func takePooledHeaders[V any](tr *Map[V]) []*info[V] {
	var got []*info[V]
	for v := tr.pool.headers.Get(); v != nil; v = tr.pool.headers.Get() {
		got = append(got, v.(*info[V]))
	}
	return got
}

// inHeaderLimbo reports whether in waits in a header list, and whether
// in its second drain.
func inHeaderLimbo[V any](tr *Map[V], in *info[V]) (waiting, second bool) {
	for i := range tr.pool.hdrs {
		for x := tr.pool.hdrs[i].head; x != nil; x = x.body.retireNext {
			if x == in {
				return true, i == 1
			}
		}
	}
	return false, false
}

// TestStaleHelperWaitsSecondDrain steps through the interleaving the
// second drain exists for. Attempt A copies node p's descriptor, which
// names header B, into its oldUpdate. A later attempt replaces it on p,
// and Compact then drops B's last reference: its first drain waits for
// A's owner. A helper that pins after that drain began and sees A in
// Try still holds the copied descriptor when the drain ends. If B were
// pooled then, the next update on p would reinstall B's descriptor at
// the same address, and the helper's freeze CAS would succeed against
// it. B must stay out of the pool until that helper has unpinned.
func TestStaleHelperWaitsSecondDrain(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // pool contents stay exact
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr := New()
	for _, k := range []int64{10, 20, 1000, 2000} {
		tr.Insert(k)
	}
	tr.Compact()
	// Pins taken by hand, one stripe per role, so the test decides which
	// drain waits for whom.
	const held, owner, helper = 1, 2, 3
	pin := func(i int) { tr.pool.pins.stripes[i].n.Add(1) }
	unpin := func(i int) { tr.pool.pins.exit(i) }

	// B = Insert(15) flags p and marks the leaf it replaces. A held pin
	// keeps B's limbo batch, and so B's body, back through one pass.
	pin(held)
	if !tr.Insert(15) {
		t.Fatal("Insert(15) failed")
	}
	B := tr.pool.retired.Load()
	p := B.body.par
	if p.update.Load() != &B.flagD {
		t.Fatal("setup: B's flag is not on p")
	}
	tr.Compact()
	if B.body == nil {
		t.Fatal("B's body recycled while a pin from before its drain was held")
	}

	// A's owner pins after B's batch began its drain, reads p's
	// descriptor (B's flag) and publishes A = {flag x, mark p} on a node
	// x off every later update's path.
	pin(owner)
	_, x, _ := tr.search(2000, tr.phase())
	_, gp, _ := tr.search(15, tr.phase())
	if x == p || x == gp || x == tr.root {
		t.Fatal("setup: x is on the path of the updates below")
	}
	A := tr.newInfo()
	*A.body = infoBody[struct{}]{nn: 2, markMask: 1 << 1,
		nodes:     [maxFreeze]*node[struct{}]{x, p},
		oldUpdate: [maxFreeze]*descriptor[struct{}]{x.update.Load(), p.update.Load()},
		par:       x, oldChild: x.left.Load(), newChild: tr.newLeaf(1999, tr.phase()), seq: tr.phase()}
	if !tr.freeze(x, A.body.oldUpdate[0], &A.flagD, A.body, 0) || !A.state.CompareAndSwap(stateUndecided, stateTry) {
		t.Fatal("setup: could not publish A")
	}

	// C = Delete(15) re-flags p: B is now named only by the leaf it
	// marked. Releasing the held pin lets the next pass recycle B's body
	// and poison that leaf, which drops B to zero references while A's
	// owner is still pinned.
	if !tr.Delete(15) {
		t.Fatal("Delete(15) failed")
	}
	unpin(held)
	tr.Compact()
	if B.refs.Load() != 0 || B.body == nil || B.body.par != nil || B.body.nodes[0] != nil {
		t.Fatalf("B not released by the pass: refs %d, body %v (want its own body, zeroed, as carrier)", B.refs.Load(), B.body)
	}
	if waiting, second := inHeaderLimbo(tr, B); !waiting || second {
		t.Fatal("B with zero refs is not in its first drain while A's owner is pinned")
	}

	// The helper pins, sees A in Try and takes the expected value and
	// descriptor of its freeze of p. Then A's owner fails that freeze
	// (p names C), aborts A and unpins: B's first drain can end.
	pin(helper)
	if A.state.Load() != stateTry {
		t.Fatal("setup: A left Try")
	}
	staleOld, staleNew := A.body.oldUpdate[1], &A.markD
	if tr.freeze(p, A.body.oldUpdate[1], &A.markD, A.body, 1) {
		t.Fatal("A's owner froze p although C replaced its expected value")
	}
	A.state.Store(stateAbort)
	tr.retire(A)
	unpin(owner)

	takePooledHeaders(tr)
	tr.Compact()
	if waiting, second := inHeaderLimbo(tr, B); !waiting || !second {
		t.Errorf("B left limbo after one drain, while a helper that saw A in Try is pinned (waiting %v, second drain %v)", waiting, second)
	}
	for _, in := range takePooledHeaders(tr) {
		if in == B {
			t.Error("B was pooled while a helper holding its descriptor as an expected value is pinned")
			tr.pool.headers.Put(B) // so the next update takes it, and the CAS below shows the damage
		}
	}

	// The next update on p takes a header from the pool. Then the helper
	// resumes: its CAS must fail, since p never names B's address again.
	if !tr.Insert(15) {
		t.Fatal("Insert(15) failed")
	}
	if tr.freeze(p, staleOld, staleNew, A.body, 1) {
		t.Fatal("the stale helper's freeze CAS succeeded: p names a reused header at the address it expected")
	}
	unpin(helper)

	cs := tr.Compact()
	if waiting, _ := inHeaderLimbo(tr, B); waiting || cs.PooledHeaders == 0 {
		t.Fatalf("B still waits after the helper unpinned: %+v", cs)
	}
	pooled := raceEnabled // sync.Pool drops a random share of puts under the race detector
	for _, in := range takePooledHeaders(tr) {
		pooled = pooled || in == B
	}
	if !pooled {
		t.Fatal("B not pooled after its second drain")
	}
	if !tr.Find(15) || !tr.Find(10) || !tr.Find(2000) {
		t.Fatal("tree contents wrong")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// namedHeaders counts, for every header other than the dummy's, the
// nodes of the version graph whose update field names it.
func namedHeaders[V any](tr *Map[V]) map[*info[V]]int32 {
	named := map[*info[V]]int32{}
	seen := map[*node[V]]bool{}
	var walk func(n *node[V])
	walk = func(n *node[V]) {
		for ; n != nil && !seen[n]; n = n.prev.Load() {
			seen[n] = true
			if d := n.update.Load(); d != tr.dummy {
				named[d.info]++
			}
			if !n.isLeaf() {
				walk(n.left.Load())
				walk(n.right.Load())
			}
		}
	}
	walk(tr.root)
	return named
}

// TestNamedHeaderNeverPooled runs concurrent churn, scans and Compact
// passes, then checks at quiescence that every header a node names
// counts exactly its naming nodes and has no body, that no pooled header
// is named by any node, and that two quiescent passes left no header
// waiting in limbo.
func TestNamedHeaderNeverPooled(t *testing.T) {
	tr := New()
	for k := int64(0); k < 256; k += 2 {
		tr.Insert(k)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			rng := workload.NewRNG(seed)
			for i := 0; i < 20000; i++ {
				k := rng.Intn(256)
				if rng.Intn(2) == 0 {
					tr.Insert(k)
				} else {
					tr.Delete(k)
				}
			}
		}(uint64(w + 1))
	}
	var bg sync.WaitGroup
	bg.Add(2)
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tr.Compact()
			}
		}
	}()
	go func() {
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				tr.RangeCount(0, 255)
			}
		}
	}()
	wg.Wait()
	close(stop)
	bg.Wait()

	tr.Compact()
	tr.Compact()
	if tr.pool.hdrs[0].head != nil || tr.pool.hdrs[1].head != nil {
		t.Fatal("headers still waiting after two quiescent passes")
	}
	named := namedHeaders(tr)
	if len(named) == 0 {
		t.Fatal("no node names a header: churn did not run")
	}
	for in, n := range named {
		if got := in.refs.Load(); got != n || in.body != nil {
			t.Fatalf("header named by %d nodes has refs %d (body attached: %v)", n, got, in.body != nil)
		}
	}
	for _, in := range takePooledHeaders(tr) {
		if named[in] != 0 {
			t.Fatalf("pooled header is named by %d nodes", named[in])
		}
		if in.refs.Load() != 0 || in.body == nil || *in.body != (infoBody[struct{}]{}) {
			t.Fatalf("pooled header has refs %d and body %v, want 0 and a zeroed body", in.refs.Load(), in.body)
		}
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
