//go:build !race

// The race detector's shadow-memory bookkeeping perturbs
// testing.AllocsPerRun, so these budgets build only without it.

package shard

import (
	"testing"

	"repro/internal/core"
)

// TestApplyAllocBudget pins the routed batch of one: Set.Apply passes
// its op, result and phase to the tree as stack arrays, so routing must
// add no allocation to the tree's own attempt. A stack array that starts
// escaping fails here rather than as a drift in the benchmark.
func TestApplyAllocBudget(t *testing.T) {
	const keys = 1 << 10
	// Pooling off on both sides makes the tree's own cost a constant:
	// 3 nodes + 1 info per insert, 1 node + 1 info per delete.
	pair := func(insert, del func(int64) bool) float64 {
		for k := int64(0); k < keys; k += 2 {
			insert(k)
		}
		k := int64(1)
		return testing.AllocsPerRun(200, func() {
			insert(k)
			del(k)
			k = (k + 2) % keys
		})
	}
	tr := core.New()
	tr.SetPooling(false)
	corePair := pair(tr.Insert, tr.Delete)

	s := New(1)
	s.tab.Load().trees[0].SetPooling(false)
	setPair := pair(s.Insert, s.Delete)
	if setPair > corePair {
		t.Errorf("Set Insert+Delete = %v allocs/pair, core = %v; routing must add none", setPair, corePair)
	}

	if got := testing.AllocsPerRun(200, func() {
		s.Apply(core.BatchOp{Kind: core.BatchContains, Key: 4})
	}); got != 0 {
		t.Errorf("Set.Apply(Contains) allocs/op = %v, want 0", got)
	}
}

// TestApplyBatchAllocBudget pins the batch path's scratch to the stack: a
// 64-op batch spread over 8 shards must allocate nothing beyond what its
// ops allocate in their trees, and Contains ops allocate nothing there.
func TestApplyBatchAllocBudget(t *testing.T) {
	const keys = 1 << 10
	s := NewRange(0, keys-1, 8)
	ops := make([]core.BatchOp, batchStack)
	for i := range ops {
		ops[i] = core.BatchOp{Kind: core.BatchContains, Key: int64(i * keys / len(ops))}
		s.Insert(ops[i].Key)
	}
	res := make([]bool, len(ops))
	phases := make([]uint64, len(ops))
	if got := testing.AllocsPerRun(100, func() { s.ApplyBatch(ops, res) }); got != 0 {
		t.Errorf("ApplyBatch of %d Contains over 8 shards: %v allocs/batch, want 0", len(ops), got)
	}
	if got := testing.AllocsPerRun(100, func() { s.ApplyBatchPhases(ops, res, phases) }); got != 0 {
		t.Errorf("ApplyBatchPhases of %d Contains over 8 shards: %v allocs/batch, want 0", len(ops), got)
	}
	for i, ok := range res {
		if !ok {
			t.Fatalf("op %d: Contains(%d) = false after Insert", i, ops[i].Key)
		}
	}
}
