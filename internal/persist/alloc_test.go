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
}
