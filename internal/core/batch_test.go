package core

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/lincheck"
)

// mustApply runs a batch that must complete (the tree is never sealed).
func mustApply(t testing.TB, tr *Tree, ops []BatchOp, res []bool) {
	if applied, ok := tr.TryApplyOps(ops, res, nil); !ok || applied != len(ops) {
		t.Errorf("TryApplyOps applied %d of %d, ok=%v, on an unsealed tree", applied, len(ops), ok)
	}
}

// TestApplyOpsOracle runs random batches against a map oracle: every
// per-op result must match what a loop of single ops would return,
// including read-your-writes between duplicate keys inside one batch.
func TestApplyOpsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tr := New()
	oracle := map[int64]bool{}
	for round := 0; round < 200; round++ {
		n := rng.Intn(24)
		ops := make([]BatchOp, n)
		for i := range ops {
			ops[i] = BatchOp{Kind: BatchKind(rng.Intn(3)), Key: int64(rng.Intn(40))}
		}
		res := make([]bool, n)
		mustApply(t, tr, ops, res)
		for i, op := range ops {
			var want bool
			switch op.Kind {
			case BatchInsert:
				want = !oracle[op.Key]
				oracle[op.Key] = true
			case BatchDelete:
				want = oracle[op.Key]
				delete(oracle, op.Key)
			default:
				want = oracle[op.Key]
			}
			if res[i] != want {
				t.Fatalf("round %d op %d (%v %d): got %v, want %v", round, i, op.Kind, op.Key, res[i], want)
			}
		}
	}
	for k := int64(0); k < 40; k++ {
		if tr.Find(k) != oracle[k] {
			t.Fatalf("end state: Find(%d) = %v, oracle %v", k, tr.Find(k), oracle[k])
		}
	}
}

// TestApplyOpsReadYourWrites pins the in-order guarantee directly.
func TestApplyOpsReadYourWrites(t *testing.T) {
	tr := New()
	ops := []BatchOp{
		{BatchContains, 7}, // absent
		{BatchInsert, 7},   // added
		{BatchContains, 7}, // sees the insert
		{BatchInsert, 7},   // duplicate
		{BatchDelete, 7},   // removes
		{BatchContains, 7}, // sees the delete
		{BatchDelete, 7},   // already gone
	}
	res := make([]bool, len(ops))
	phases := make([]uint64, len(ops))
	if applied, ok := tr.TryApplyOps(ops, res, phases); !ok || applied != len(ops) {
		t.Fatalf("applied, ok = %d, %v", applied, ok)
	}
	want := []bool{false, true, true, false, true, false, false}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("res[%d] = %v, want %v (full: %v)", i, res[i], want[i], res)
		}
		// No phase opened during the batch, so every op decided at the
		// clock's current phase.
		if phases[i] != tr.Clock().Now() {
			t.Fatalf("phases[%d] = %d, want the clock's %d", i, phases[i], tr.Clock().Now())
		}
	}
}

// TestTryApplyOpsSealed: sealing stops the batch at the first unapplied
// update, res[:applied] stays valid, and Contains ops never fail on a
// sealed tree (reads of sealed trees are legal, matching Find).
func TestTryApplyOpsSealed(t *testing.T) {
	tr := New()
	tr.Insert(1)
	tr.Seal()

	ops := []BatchOp{{BatchContains, 1}, {BatchContains, 2}, {BatchInsert, 3}, {BatchContains, 1}}
	res := make([]bool, len(ops))
	applied, ok := tr.TryApplyOps(ops, res, nil)
	if ok || applied != 2 {
		t.Fatalf("applied, ok = %d, %v; want 2, false", applied, ok)
	}
	if !res[0] || res[1] {
		t.Fatalf("contains results before the seal stop: %v", res[:2])
	}
	if tr.Find(3) {
		t.Fatal("insert leaked into a sealed tree")
	}

	// An all-reads batch completes even on a sealed tree.
	applied, ok = tr.TryApplyOps([]BatchOp{{BatchContains, 1}}, res[:1], nil)
	if !ok || applied != 1 || !res[0] {
		t.Fatalf("reads on sealed tree: applied=%d ok=%v res=%v", applied, ok, res[0])
	}
}

// TestApplyOpsArgChecks: short result slices and reserved keys panic up
// front, before any op applies.
func TestApplyOpsArgChecks(t *testing.T) {
	tr := New()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("short res", func() { tr.TryApplyOps(make([]BatchOp, 3), make([]bool, 2), nil) })
	mustPanic("short phases", func() { tr.TryApplyOps(make([]BatchOp, 3), make([]bool, 3), make([]uint64, 2)) })
	mustPanic("reserved key", func() {
		tr.TryApplyOps([]BatchOp{{BatchInsert, 1}, {BatchInsert, MaxKey + 1}}, make([]bool, 2), nil)
	})
	if tr.Find(1) {
		t.Fatal("op applied before argument validation finished")
	}
}

// TestApplyOpsLincheck: concurrent batches on a small key set must form
// a linearizable history, with each op's interval the whole batch call
// (its linearization point lies inside the call).
func TestApplyOpsLincheck(t *testing.T) {
	const (
		rounds   = 50
		workers  = 4
		batches  = 3
		batchLen = 4
	)
	for round := 0; round < rounds; round++ {
		tr := New()
		var mu sync.Mutex
		var events []lincheck.Event
		rngs := make([]*rand.Rand, workers)
		for w := range rngs {
			rngs[w] = rand.New(rand.NewSource(int64(round*workers + w)))
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(rng *rand.Rand) {
				defer wg.Done()
				<-start
				ops := make([]BatchOp, batchLen)
				res := make([]bool, batchLen)
				for b := 0; b < batches; b++ {
					for i := range ops {
						ops[i] = BatchOp{Kind: BatchKind(rng.Intn(3)), Key: int64(rng.Intn(3))}
					}
					inv := time.Now().UnixNano()
					mustApply(t, tr, ops, res)
					resTs := time.Now().UnixNano()
					mu.Lock()
					for i, op := range ops {
						kind := lincheck.Find
						switch op.Kind {
						case BatchInsert:
							kind = lincheck.Insert
						case BatchDelete:
							kind = lincheck.Delete
						}
						events = append(events, lincheck.Event{
							Kind: kind, Key: op.Key, Ret: res[i], Inv: inv, Res: resTs,
						})
					}
					mu.Unlock()
				}
			}(rngs[w])
		}
		close(start)
		wg.Wait()
		if err := lincheck.Check(events); err != nil {
			t.Fatalf("round %d: batched history not linearizable: %v", round, err)
		}
	}
}
