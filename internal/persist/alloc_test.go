package persist

import (
	"testing"
	"time"

	"repro/bst"
)

// TestUpdateAllocBudget: logging adds no allocation to an update. An
// effective Insert+Delete pair through the WAL allocates exactly what the
// same pair costs on a bare map (its records are encoded on the stack and
// framed into the WAL's reused scratch buffer), and ApplyBatch on a batch
// of up to 64 ops allocates no phase vector of its own.
func TestUpdateAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race detector")
	}
	const keys = 1 << 10
	// Neither map compacts, so the trees' own costs are identical
	// constants on both sides: nothing ever returns to their pools.
	pair := func(insert, del func(int64) bool) float64 {
		for k := int64(0); k < keys; k += 2 {
			insert(k)
		}
		k := int64(1)
		return testing.AllocsPerRun(200, func() {
			if !insert(k) || !del(k) {
				t.Fatalf("update of %d was not effective", k)
			}
			k = (k + 2) % keys
		})
	}
	m := newTestMap()
	mapPair := pair(m.Insert, m.Delete)

	// A long sync period keeps fsync out of the measured loop; the
	// encoding and framing are the same in every durability mode.
	p, _, err := Open(Config{Dir: t.TempDir(), SyncEvery: time.Hour}, newTestMap())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got := pair(p.Insert, p.Delete); got != mapPair {
		t.Errorf("persist Insert+Delete = %v allocs/pair, bare map = %v; logging must add none", got, mapPair)
	}

	ops := make([]bst.BatchOp, 64)
	for i := range ops {
		ops[i] = bst.BatchOp{Kind: bst.BatchContains, Key: int64(i)}
	}
	res := make([]bool, len(ops))
	phases := make([]uint64, len(ops))
	mapBatch := testing.AllocsPerRun(200, func() { m.ApplyBatchPhases(ops, res, phases) })
	if got := testing.AllocsPerRun(200, func() { p.ApplyBatch(ops, res) }); got != mapBatch {
		t.Errorf("persist ApplyBatch(64 ops) = %v allocs/call, bare map = %v; want no phase vector", got, mapBatch)
	}

	// Effective updates: 16 Inserts of absent keys, then 16 Deletes of
	// them. Both maps have run the same history, so their trees allocate
	// the same; the WAL's record group must add nothing.
	ins := make([]bst.BatchOp, 16)
	del := make([]bst.BatchOp, 16)
	for i := range ins {
		k := int64(2*i + 1)
		ins[i] = bst.BatchOp{Kind: bst.BatchInsert, Key: k}
		del[i] = bst.BatchOp{Kind: bst.BatchDelete, Key: k}
	}
	updates := func(apply func([]bst.BatchOp)) float64 {
		return testing.AllocsPerRun(100, func() {
			for _, batch := range [][]bst.BatchOp{ins, del} {
				apply(batch)
				for i := range batch {
					if !res[i] {
						t.Fatalf("%v of %d was not effective", batch[i].Kind, batch[i].Key)
					}
				}
			}
		})
	}
	mapUpdates := updates(func(b []bst.BatchOp) { m.ApplyBatchPhases(b, res, phases) })
	if got := updates(func(b []bst.BatchOp) { p.ApplyBatch(b, res) }); got != mapUpdates {
		t.Errorf("persist ApplyBatch of 16 effective Inserts then 16 Deletes = %v allocs, bare map = %v; want no record group allocation", got, mapUpdates)
	}
}
