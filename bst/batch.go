package bst

import "repro/internal/core"

// BatchKind selects what a BatchOp does; see the BatchOp constants.
type BatchKind = core.BatchKind

// Batch operation kinds.
const (
	BatchInsert   = core.BatchInsert
	BatchDelete   = core.BatchDelete
	BatchContains = core.BatchContains
)

// BatchOp is one point operation of a batch: a kind plus its key.
type BatchOp = core.BatchOp

// ApplyBatch applies a vector of point operations in slice order, writing
// each op's result (Insert: key was absent; Delete: key was present;
// Contains: key is present) into res, which must be at least len(ops)
// long.
//
// Batching amortizes the per-op fixed costs over the whole vector: the
// routing table is resolved once and ops are grouped by destination
// shard, and each group holds one pin stripe and one cached phase read.
// Semantics match a loop of the single-op calls, not a transaction: each
// op is individually linearizable inside the ApplyBatch call, a later op
// observes an earlier op's effect (read-your-writes within the batch),
// and the batch as a whole is NOT atomic — concurrent operations and
// scans can interleave between any two of its ops. Groups landing on a
// shard sealed by a concurrent Split/Merge re-route through the
// replacement table, exactly like single ops. See DESIGN.md §11.
func (m *ShardedMap) ApplyBatch(ops []BatchOp, res []bool) { m.s.ApplyBatch(ops, res) }

// ApplyBatchPhases is ApplyBatch that additionally records each op's
// deciding phase into phases (ignored when nil, else at least len(ops)
// long); see (*ShardedMap).ApplyPhase for what the phase means.
func (m *ShardedMap) ApplyBatchPhases(ops []BatchOp, res []bool, phases []uint64) {
	m.s.ApplyBatchPhases(ops, res, phases)
}

// BulkLoad ingests a strictly ascending key sequence through the
// migration machinery instead of per-key Inserts: one atomic cut of
// every shard, each shard's frozen contents merged with its slice of the
// keys, and balanced CAS-free replacement trees installed under a single
// routing-table swap. It returns how many keys were newly added (keys
// already present count toward neither side, like a false Insert) and
// fails — without modifying the map — on out-of-range or non-ascending
// input.
//
// Readers stay wait-free throughout and concurrent updates re-route,
// exactly as during a Split or Merge; the load serializes with
// migrations. On RelaxedScans maps (no shared clock, so no migration
// cut) it degrades to an Insert loop with the same result.
func (m *ShardedMap) BulkLoad(keys []int64) (added int, err error) { return m.s.BulkLoad(keys) }

// BulkLoadPhase is BulkLoad that additionally reports the migration cut
// phase the load was linearized at: reads at phases > cut observe every
// loaded key. Durability logs a bulk load as one WAL record stamped with
// this phase. Fails on RelaxedScans maps, which have no single cut.
func (m *ShardedMap) BulkLoadPhase(keys []int64) (added int, cut uint64, err error) {
	return m.s.BulkLoadPhase(keys)
}
