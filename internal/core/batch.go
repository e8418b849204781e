package core

// Batch execution, and the one update loop. Every update pays a fixed
// toll per call — a pin-stripe acquisition, a phase-clock read, and (for
// composite structures) a routing-table resolution upstream — that
// dominates once the tree itself is fast. TryApplyOps pays it once per
// vector: one pin for the whole vector, one cached phase read refreshed
// only when an attempt fails, the same per-attempt protocol otherwise
// (DESIGN.md §11). A single Insert, Delete or Put is a batch of one.
//
// Semantics: each operation in the batch is INDIVIDUALLY linearizable,
// with its linearization point inside the TryApplyOps call; operations
// apply in slice order, so a later op on the same key observes the
// effects of an earlier one (read-your-writes within the batch). The
// batch as a whole is NOT atomic: a concurrent scan or update may be
// interleaved between any two ops of the batch, and a concurrent scan
// can observe a prefix of the batch's effects.
//
// Why the cached phase is sound:
//
//   - Commits: execute's handshake check (help, paper lines 111-112)
//     aborts any attempt whose phase no longer equals the clock, so an
//     update can only commit while the clock still reads the cached seq
//     — exactly the single-op guarantee. A stale cache costs one failed
//     attempt and a refresh, never a wrong commit.
//   - Reads: findOnce validates the traversed branch against the CURRENT
//     child pointers, so any attempt that validates is a read of the
//     present state regardless of how old seq is.
//   - Sealing: the per-op seal check loads sealed AFTER the phase that
//     attempt will use was read (the cache was filled even earlier), so
//     the Seal ordering argument (seal.go) holds verbatim: any op that
//     passes the check commits at a phase <= the migration cut and is
//     part of the migration snapshot.
//
// One pin stripe suffices for the whole batch: the recycler's drain only
// needs every unregistered traversal to hold SOME stripe for its full
// duration (pool.go), and the batch is one traversal-holding call.

// BatchKind selects what a BatchOp does.
type BatchKind uint8

// Batch operation kinds.
const (
	BatchInsert BatchKind = iota
	BatchDelete
	BatchContains
)

// String returns the kind's name.
func (k BatchKind) String() string {
	switch k {
	case BatchInsert:
		return "insert"
	case BatchDelete:
		return "delete"
	default:
		return "contains"
	}
}

// BatchOp is one point operation of a batch.
type BatchOp struct {
	Kind BatchKind
	Key  int64
}

// TryApplyOps applies ops in order, writing each op's result (Insert:
// key was absent; Delete: key was present; Contains: key is present)
// into res, which must be at least len(ops) long. See the file comment
// for the batch semantics: per-op linearizable, in-order, NOT atomic.
//
// It is the tree's only update entry that refuses sealed trees, and the
// loop Insert, Delete and Put run as batches of one. applied counts the
// ops that completed (res[:applied] is valid) and ok=false reports that
// the tree was sealed before ops[applied] took effect: the caller
// re-resolves which tree owns the remainder and retries there. None of
// the remainder left any trace, because every attempt re-checks the seal
// after reading its phase, and an attempt that passed the check has a
// phase <= the seal's cut (see Seal). So a committed op is part of the
// migration snapshot and is counted in applied.
//
// phases, when non-nil (at least len(ops) long), receives each op's
// deciding phase. For an effective Insert or Delete this is the EXACT
// commit phase: help's handshake check aborts any attempt whose phase no
// longer matches the clock, so a commit at seq proves the clock still
// read seq at decision time. Durability stamps WAL records with it; a
// checkpoint cut c then covers the update iff phase <= c, which is what
// makes "replay records with phase > c" exact (internal/persist). For an
// ineffective op it is the phase the outcome was observed at.
func (t *Map[V]) TryApplyOps(ops []BatchOp, res []bool, phases []uint64) (applied int, ok bool) {
	var zero V
	return t.applyOps(ops, res, phases, zero, false)
}

// applyOps is the retry loop behind TryApplyOps. With replace set, a
// BatchInsert binds its key to v and replaces a present key's value: Put
// is a batch of one through here.
func (t *Map[V]) applyOps(ops []BatchOp, res []bool, phases []uint64, v V, replace bool) (applied int, ok bool) {
	if len(res) < len(ops) {
		panic("core: TryApplyOps result slice shorter than ops")
	}
	if phases != nil && len(phases) < len(ops) {
		panic("core: TryApplyOps phase slice shorter than ops")
	}
	for _, op := range ops {
		checkKey(op.Key)
	}
	if len(ops) == 0 {
		return 0, true
	}
	s := t.pool.pins.enter(ops[0].Key)
	defer t.pool.pins.exit(s)
	seq := t.clock.Now()
	for i, op := range ops {
		for {
			if op.Kind != BatchContains && t.sealed.Load() {
				return i, false
			}
			var r bool
			var st opOutcome
			switch op.Kind {
			case BatchInsert:
				r, st = t.putOnce(op.Key, v, seq, replace)
			case BatchDelete:
				r, st = t.deleteOnce(op.Key, seq)
			default:
				_, r, st = t.findOnce(op.Key, seq)
			}
			if st == opDone {
				res[i] = r
				if phases != nil {
					phases[i] = seq
				}
				break
			}
			seq = t.clock.Now() // refresh the cached phase, then retry the op
		}
	}
	return len(ops), true
}
