package core

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"
	"unsafe"

	"repro/internal/workload"
)

// Tests for the retire-stack drain (prune.go): a differential oracle
// against the whole-graph walk it replaced, body recycling of drained
// infos, and the layout and allocation pins the change is for.

// compactFull is the whole-graph pruner Compact used before the retire
// stack, kept as a test oracle. It walks the version graph reachable by
// readers with phase >= H, cuts the prev of the first phase-<=H node of
// every chain, and sends everything behind those cuts that the walk did
// not reach through the same limbo pipeline. It drops the retire stack
// instead of draining it, so a tree must be pruned by compactFull only.
func (t *Map[V]) compactFull() CompactStats {
	t.pool.compactMu.Lock()
	defer t.pool.compactMu.Unlock()
	t.pool.retired.Store(nil)

	h := t.Horizon()
	cs := CompactStats{Horizon: h}
	live := make(map[*node[V]]bool)
	var heads []*node[V]
	var walk func(n *node[V])
	walk = func(n *node[V]) {
		if n == nil || live[n] {
			return
		}
		live[n] = true
		if n.isLeaf() {
			return
		}
		for _, c := range [2]*node[V]{n.left.Load(), n.right.Load()} {
			for c != nil && c.seqNum() > h { // newer than the horizon: stays linked
				walk(c)
				c = c.prev.Load()
			}
			if c == nil {
				continue
			}
			if behind := c.prev.Load(); behind != nil { // c is where every reader stops
				c.prev.Store(nil)
				cs.PrunedLinks++
				heads = append(heads, behind)
			}
			walk(c)
		}
	}
	walk(t.root)
	cs.LiveNodes = len(live)

	b := t.newBatch()
	seen := make(map[*node[V]]bool)
	var collect func(g *node[V])
	collect = func(g *node[V]) {
		if g == nil || live[g] || seen[g] {
			return
		}
		seen[g] = true
		b.nodes = append(b.nodes, g)
		collect(g.prev.Load())
		if !g.isLeaf() {
			collect(g.left.Load())
			collect(g.right.Load())
		}
	}
	if t.pool.pooling.Load() {
		for _, g := range heads {
			collect(g)
		}
	}
	cs.GarbageNodes = len(b.nodes)
	t.enqueueLimbo(b)
	t.ripen()
	cs.RecycledNodes, cs.RecycledInfos = t.recycleRipe()
	return cs
}

// drainWalkKeys is the key space of TestCompactMatchesFullWalk's histories.
const drainWalkKeys = 512

// TestCompactMatchesFullWalk runs identical single-goroutine histories on
// pairs of trees — one pruned by the retire-stack drain, one by the old
// whole-graph walk — and requires both to leave the same version graph,
// the same garbage and the same keys, with invariants clean, after every
// pass; at quiescence the drain's |T_H| must equal the walk's count.
// Starting states cover insert-built, bulk-built and migration-built
// trees, plus replace-heavy map histories; histories include phases
// opened by scans and a snapshot that holds the horizon across several
// passes.
func TestCompactMatchesFullWalk(t *testing.T) {
	migrationKeys := func() []int64 {
		src := New()
		rng := workload.NewRNG(5)
		for i := 0; i < 4000; i++ {
			k := rng.Intn(drainWalkKeys)
			if rng.Intn(2) == 0 {
				src.Insert(k)
			} else {
				src.Delete(k)
			}
		}
		return src.Keys()
	}()
	starts := map[string]func() *Tree{
		"insert-built": func() *Tree { return New() },
		"bulk-built": func() *Tree {
			keys := make([]int64, 0, drainWalkKeys/2)
			for k := int64(0); k < drainWalkKeys; k += 2 {
				keys = append(keys, k)
			}
			tr, err := BuildFromSortedKeys(nil, keys)
			if err != nil {
				t.Fatal(err)
			}
			return tr
		},
		// The shard migration path: a fresh tree built from a snapshot
		// iterator on a clock that has already advanced.
		"migration-built": func() *Tree {
			src, err := BuildFromSortedKeys(nil, migrationKeys)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				src.Clock().Open()
			}
			snap := src.Snapshot()
			defer snap.Release()
			it := snap.Iter(MinKey, MaxKey)
			tr, err := BuildFromSorted(src.Clock(), snap.Len(), func() (int64, bool) {
				if !it.Next() {
					return 0, false
				}
				return it.Key(), true
			})
			if err != nil {
				t.Fatal(err)
			}
			return tr
		},
	}
	insertDelete := func(tr *Tree, k, op int64) {
		if op < 9 {
			tr.Insert(k)
		} else {
			tr.Delete(k)
		}
	}
	for name, start := range starts {
		t.Run(name, func(t *testing.T) {
			compareDrainWithWalk(t, start(), start(), insertDelete)
		})
	}
	// About half of all ops replace a present key's leaf.
	putDelete := func(tr *Map[int64], k, op int64) {
		if op < 13 {
			tr.Put(k, k*op)
		} else {
			tr.Delete(k)
		}
	}
	t.Run("replace-heavy", func(t *testing.T) {
		compareDrainWithWalk(t, NewMap[int64](), NewMap[int64](), putDelete)
	})
}

// compareDrainWithWalk runs one history on drained (pruned by Compact) and
// walked (pruned by compactFull) and compares them after every pass.
// update applies op (in [0, 18)) to key k; the remaining ops open phases.
func compareDrainWithWalk[V any](t *testing.T, drained, walked *Map[V], update func(tr *Map[V], k, op int64)) {
	t.Helper()
	rng := workload.NewRNG(77)
	var snaps [2]*MapSnapshot[V]
	for round := 0; round < 24; round++ {
		for i := 0; i < 600; i++ {
			k := rng.Intn(drainWalkKeys)
			op := rng.Intn(20)
			for _, tr := range []*Map[V]{drained, walked} {
				if op < 18 {
					update(tr, k, op)
				} else {
					tr.RangeCount(k, k+16) // opens a phase
				}
			}
		}
		switch round % 8 {
		case 2: // hold the horizon across the next passes
			snaps = [2]*MapSnapshot[V]{drained.Snapshot(), walked.Snapshot()}
		case 5:
			snaps[0].Release()
			snaps[1].Release()
			snaps = [2]*MapSnapshot[V]{}
		}
		csD, csW := drained.Compact(), walked.compactFull()
		where := fmt.Sprintf("round %d", round)
		if csD.Horizon != csW.Horizon {
			t.Fatalf("%s: horizons differ: drain %d, walk %d", where, csD.Horizon, csW.Horizon)
		}
		if csD.GarbageNodes != csW.GarbageNodes {
			t.Fatalf("%s: garbage differs: drain %d, walk %d", where, csD.GarbageNodes, csW.GarbageNodes)
		}
		if d, w := drained.VersionGraphSize(), walked.VersionGraphSize(); d != w {
			t.Fatalf("%s: version graph differs: drain %d, walk %d", where, d, w)
		}
		if snaps[0] == nil && csD.LiveNodes != csW.LiveNodes {
			t.Fatalf("%s: quiescent live nodes differ: drain %d, walk %d", where, csD.LiveNodes, csW.LiveNodes)
		}
		if !equalKeys(drained.Keys(), walked.Keys()) {
			t.Fatalf("%s: key sets differ", where)
		}
		for _, tr := range []*Map[V]{drained, walked} {
			if err := tr.CheckInvariants(); err != nil {
				t.Fatalf("%s: %v", where, err)
			}
		}
	}
}

// TestDrainedInfoClearedAfterPinnedHelper: a drained info keeps its body
// attached while a pin taken before its attempt was decided is held (a
// helper inside help may still read it), its header's state stays intact
// throughout, and the first pass after the unpin detaches the body,
// zeroes it and leaves the header answering from its state alone.
func TestDrainedInfoClearedAfterPinnedHelper(t *testing.T) {
	tr := New()
	for k := int64(0); k < 16; k++ {
		tr.Insert(k)
	}
	tr.Compact()

	s := tr.pool.pins.enter(99) // a helper that has seen the next attempt undecided
	if !tr.Delete(7) {
		t.Fatal("Delete(7) failed")
	}
	in := tr.pool.retired.Load()
	if in == nil || in.state.Load() != stateCommit || in.body.delta != -2 {
		t.Fatal("the committed delete's info is not on top of the retire stack")
	}
	body := in.body
	cs := tr.Compact()
	if cs.RetiredInfos != 1 || cs.PrunedLinks != 1 || cs.GarbageNodes != 3 {
		t.Fatalf("draining one delete: %+v, want 1 info, 1 cut, 3 garbage nodes", cs)
	}
	if cs.RecycledInfos != 0 || in.body != body {
		t.Fatalf("body detached while a pin from before its decision was held: %+v", cs)
	}
	if body.nodes[0] == nil || body.par == nil || body.oldChild == nil || body.newChild == nil ||
		body.nn != 4 || body.markMask != 1<<1|1<<2|1<<3 {
		t.Fatal("body changed while a pin from before its decision was held")
	}
	if body.newChild.prev.Load() != nil {
		t.Fatal("drain did not cut newChild.prev")
	}
	if in.state.Load() != stateCommit || !tr.help(in) {
		t.Fatal("header state changed while the pinned helper ran")
	}

	tr.pool.pins.exit(s)
	cs = tr.Compact()
	if cs.RecycledInfos != 1 || cs.RecycledNodes != 3 {
		t.Fatalf("pass after the unpin: %+v, want 1 body recycled and 3 nodes pooled", cs)
	}
	if in.body != nil {
		t.Fatal("drained info still holds its body after its pin drain")
	}
	if *body != (infoBody[struct{}]{}) {
		t.Fatal("recycled body still holds references")
	}
	if in.state.Load() != stateCommit || in.flagD.info != in || in.markD.info != in || in.markD.typ != mark {
		t.Fatal("recycling touched the header readers of a decided info still consult")
	}
	if tr.Find(7) || !tr.Find(6) || !tr.Find(8) {
		t.Fatal("tree contents wrong after recycling")
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestHelpDecidedInfoWithoutBody: validateLink on a node marked by a
// committed attempt whose body was already recycled fails (the committed
// mark is permanent) and help answers from the header's state alone, for
// a commit and an abort, without touching the detached body.
func TestHelpDecidedInfoWithoutBody(t *testing.T) {
	tr := New()
	for k := int64(0); k < 8; k++ {
		tr.Insert(k)
	}
	tr.Compact()
	if !tr.Delete(3) {
		t.Fatal("Delete(3) failed")
	}
	in := tr.pool.retired.Load()
	if cs := tr.Compact(); cs.RecycledInfos != 1 || in.body != nil {
		t.Fatalf("quiescent pass did not recycle the delete's body: %+v", cs)
	}
	if in.state.Load() != stateCommit {
		t.Fatal("the delete did not commit")
	}

	n := tr.newNode(10, tr.phase(), nil, false)
	c := tr.newLeaf(9, tr.phase())
	n.left.Store(c)
	n.update.Store(&in.markD)
	if ok, up := tr.validateLink(n, c, true); ok || up != nil {
		t.Fatal("validateLink passed a link under a committed mark")
	}
	if !tr.help(in) {
		t.Fatal("help on a committed info without a body reported no commit")
	}

	ab := &info[struct{}]{}
	ab.state.Store(stateAbort)
	ab.markD = descriptor[struct{}]{typ: mark, info: ab}
	if tr.help(ab) {
		t.Fatal("help on an aborted info without a body reported a commit")
	}
	if ok, _ := tr.validateLink(n, c, true); ok {
		t.Fatal("validateLink passed a link under a committed mark after helping")
	}
}

// TestUnpublishedInfoPooledWhole: an info whose first freeze CAS failed
// was never seen by another goroutine, so execute pools its header at
// once, carrying its zeroed body, when pooling is on, and leaves both to
// the GC when it is off. recycleBody, which a drained info that nodes
// still name goes through, detaches and zeroes the body and pools it
// only with pooling on.
func TestUnpublishedInfoPooledWhole(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // pool contents stay exact
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, pooling := range []bool{true, false} {
		tr := New()
		tr.SetPooling(pooling)
		tr.Insert(5)
		_, p, l := tr.search(5, tr.phase())
		stale := tr.newInfo() // decided and never installed, so p's freeze CAS fails
		stale.state.Store(stateAbort)
		takePooledHeaders(tr)
		want := uint64(0) // PoolInfoPuts' rise per put: none with pooling off
		if pooling {
			want = 1
		}
		puts := tr.Stats().PoolInfoPuts
		if tr.execute([maxFreeze]*node[struct{}]{p, l}, [maxFreeze]*descriptor[struct{}]{&stale.flagD, l.update.Load()},
			2, 1<<1, p, l, tr.newLeaf(5, tr.phase()), tr.phase(), 0) {
			t.Fatalf("pooling %v: an attempt whose flag CAS expected a stale value committed", pooling)
		}
		pooled := takePooledHeaders(tr)
		switch {
		case raceEnabled:
			// sync.Pool drops a random share of puts under the race
			// detector, so the pool's contents are not exact.
		case !pooling && len(pooled) != 0:
			t.Fatalf("pooling off: %d headers pooled", len(pooled))
		case pooling && len(pooled) != 1:
			t.Fatalf("pooling on: %d headers pooled, want the unpublished one", len(pooled))
		case pooling && (pooled[0].body == nil || pooled[0].body.par != nil || pooled[0].body.nn != 0):
			t.Fatal("pooling on: the unpublished header was pooled without its zeroed body")
		case pooling && pooled[0].refs.Load() != 0:
			t.Fatalf("pooling on: the unpublished header was pooled with refs %d, want 0", pooled[0].refs.Load())
		}
		if got := tr.Stats().PoolInfoPuts - puts; got != want {
			t.Fatalf("pooling %v: the unpublished header raised PoolInfoPuts by %d, want %d", pooling, got, want)
		}

		in := tr.newInfo()
		body := in.body
		body.nn, body.delta, body.seq = 2, 2, 5
		body.par = tr.newLeaf(1, 0)
		body.nodes[0] = body.par
		puts = tr.Stats().PoolInfoPuts
		tr.recycleBody(in)
		if in.body != nil || *body != (infoBody[struct{}]{}) {
			t.Fatalf("pooling %v: info kept its body or the body kept references", pooling)
		}
		if got := tr.Stats().PoolInfoPuts - puts; got != want {
			t.Fatalf("pooling %v: PoolInfoPuts rose by %d, want %d", pooling, got, want)
		}
	}
}

// TestNodeLayout pins the set's node at six words: the 48 B size class.
func TestNodeLayout(t *testing.T) {
	if got := unsafe.Sizeof(node[struct{}]{}); got != 48 {
		t.Fatalf("unsafe.Sizeof(node[struct{}]{}) = %d, want 48", got)
	}
}

// TestInfoLayout pins the info header, what a decided attempt keeps for
// as long as nodes point at it, at six words: the 48 B size class.
func TestInfoLayout(t *testing.T) {
	if got := unsafe.Sizeof(info[struct{}]{}); got != 48 {
		t.Fatalf("unsafe.Sizeof(info[struct{}]{}) = %d, want 48", got)
	}
}

// TestCompactScratchReused: a steady churn-and-compact loop reuses the
// per-pass batch slices instead of allocating them every pass.
func TestCompactScratchReused(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// One P: sync.Pool's per-P chains then stay warm; with more, puts on
	// one P and steals from another reallocate the pool's internals.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr := New()
	for k := int64(0); k < 256; k++ {
		tr.Insert(k)
	}
	k := int64(0)
	churn := func() {
		for i := 0; i < 32; i++ {
			tr.Delete(k % 256)
			tr.Insert(k % 256)
			k++
		}
	}
	for i := 0; i < 8; i++ { // warm the pools and the batch slices
		churn()
		tr.Compact()
	}
	var total uint64
	var ms runtime.MemStats
	for i := 0; i < 20; i++ {
		churn()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		if cs := tr.Compact(); cs.GarbageNodes == 0 {
			t.Fatalf("pass %d found no garbage: %+v", i, cs)
		}
		runtime.ReadMemStats(&ms)
		total += ms.Mallocs - before
	}
	if total != 0 {
		t.Errorf("Compact allocated %d times over 20 warm passes, want 0", total)
	}
}
