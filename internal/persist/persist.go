package persist

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/bst"
	"repro/internal/obs"
)

// Config configures Open.
type Config struct {
	// Dir is the persist directory (created if absent). One directory
	// serves one map; two live Maps on the same directory corrupt it.
	Dir string

	// SyncEvery selects the WAL durability mode: 0 (default) group-
	// commits — every update is fsynced before it is acknowledged, with
	// one leader fsync absorbing each concurrent burst — while a positive
	// duration acknowledges from the OS buffer and fsyncs on that period,
	// trading a bounded window of acknowledged-but-lost updates on crash
	// for fewer fsyncs.
	SyncEvery time.Duration

	// CheckpointBlock is the number of keys per checkpoint frame
	// (default 8192).
	CheckpointBlock int

	// Logf, when non-nil, receives recovery and checkpoint progress lines.
	Logf func(format string, args ...any)
}

// Map wraps a bst.ShardedMap with durability: every effective update is
// appended to the WAL stamped with its exact commit phase before the
// call returns, and Checkpoint streams a wait-free snapshot cut to disk
// and truncates the log behind it. Reads delegate untouched — durability
// costs nothing on the read path.
//
// Write-path contract (ack-after-log): an update is acknowledged only
// after its record is appended (and, in group-commit mode, fsynced).
// The update is visible in memory from its commit instant, slightly
// BEFORE it is durable; a reader may therefore observe an update that a
// crash then loses — but no caller ever had it acknowledged, and the
// recovered state is always a prefix-consistent image: exactly the
// checkpoint cut plus the logged records above it.
//
// A WAL append failure (disk full, I/O error) panics: the map can no
// longer honor the durability its acknowledgements promise, and serving
// on silently would turn every future ack into a lie.
type Map struct {
	m   *bst.ShardedMap
	wal *wal
	cfg Config

	// cutMu serializes the two operations that open linearization cuts
	// the WAL must order exactly: a checkpoint's rotate+snapshot and a
	// BulkLoad's migration cut. Serializing their clock Opens makes the
	// two phases strictly distinct (Open never returns the same value to
	// ordered callers), so "load phase <= checkpoint cut" always means
	// the load's install completed before the snapshot was taken and its
	// keys are in the image. Point ops never take this lock — their
	// ordering against the cut needs only rotate-before-snapshot (see
	// Checkpoint).
	cutMu sync.Mutex

	// ckptMu serializes whole checkpoints (cut + stream + rename +
	// truncate); concurrent Checkpoint calls would only waste I/O.
	ckptMu sync.Mutex

	// ckptGate, when non-nil, is called before each checkpoint block is
	// written — a test hook to hold the stream mid-checkpoint (set it
	// before any Checkpoint runs).
	ckptGate func(block int)

	checkpoints atomic.Uint64
	ckptErrs    atomic.Uint64
	lastCut     atomic.Uint64
	lastCkptNS  atomic.Int64 // wall time (UnixNano) the newest checkpoint committed
	closed      atomic.Bool
	openedAt    time.Time
}

// ErrNonEmptyMap reports an Open with a map that already holds keys:
// recovery seeds the map, and pre-existing unlogged keys would silently
// vanish on the next recovery.
var ErrNonEmptyMap = errors.New("persist: Open requires an empty map (recovery seeds it)")

// Open recovers the durable state of cfg.Dir into m (which must be
// empty), advances m's clock past every recovered phase,
// opens a fresh WAL segment, and returns the durable wrapper plus the
// recovery image for inspection.
func Open(cfg Config, m *bst.ShardedMap) (*Map, *Image, error) {
	if m == nil {
		return nil, nil, errors.New("persist: nil map")
	}
	if m.Len() != 0 {
		return nil, nil, ErrNonEmptyMap
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	img, err := Recover(cfg.Dir)
	if err != nil {
		return nil, nil, err
	}
	if len(img.Keys) > 0 {
		// Seed through the bulk-load path: one migration cut, balanced
		// CAS-free trees (core.BuildFromSortedKeys). NOT logged — the
		// image is already durable as checkpoint + WAL.
		added, err := m.BulkLoad(img.Keys)
		if err != nil {
			return nil, nil, fmt.Errorf("persist: seeding recovered image: %w", err)
		}
		if added != len(img.Keys) {
			return nil, nil, fmt.Errorf("persist: seeded %d of %d recovered keys", added, len(img.Keys))
		}
	}
	// New commit phases must exceed every persisted phase, or the next
	// recovery's phase>cut filter would misorder them (core.Clock.AdvanceTo).
	m.AdvanceClock(img.MaxPhase + 1)
	sweepTemps(cfg.Dir)
	l, err := openWAL(cfg.Dir, img.NextSeg, cfg.SyncEvery)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Logf != nil {
		cfg.Logf("%s", img.String())
	}
	// Flight-record the recovery: phase = the highest persisted phase the
	// image carried (the recovered lineage resumes above it).
	obs.Emit(obs.EventCheckpoint, obs.KindRecovery, -1, img.MaxPhase,
		int64(len(img.Keys)), int64(img.WALApplied), int64(img.TornTail))
	return &Map{m: m, wal: l, cfg: cfg, openedAt: time.Now()}, img, nil
}

// Underlying returns the wrapped map for read-only inspection (stats,
// invariant checks). Updating it directly bypasses the WAL.
func (p *Map) Underlying() *bst.ShardedMap { return p.m }

// ShardInfos delegates per-shard introspection to the wrapped map, so a
// durable store serves the same per-shard gauges as a plain one.
func (p *Map) ShardInfos() []bst.ShardInfo { return p.m.ShardInfos() }

// ClockNow returns the current phase of the wrapped map's shared clock;
// ok is always true; the pair matches bst.ShardedMap.ClockNow.
func (p *Map) ClockNow() (uint64, bool) { return p.m.ClockNow() }

func (p *Map) mustAppend(group []byte, maxPhase uint64) {
	if err := p.wal.append(group, maxPhase); err != nil {
		panic(fmt.Sprintf("persist: WAL append failed, durability lost: %v", err))
	}
}

// Insert adds k, reporting whether it was absent; effective inserts are
// durable (per cfg.SyncEvery) before the call returns.
func (p *Map) Insert(k int64) bool { return p.apply(bst.BatchInsert, recInsert, k) }

// Delete removes k, reporting whether it was present; effective deletes
// are durable before the call returns.
func (p *Map) Delete(k int64) bool { return p.apply(bst.BatchDelete, recDelete, k) }

// apply runs one update and logs it, stamped with its commit phase, when
// it took effect.
func (p *Map) apply(kind bst.BatchKind, rec byte, k int64) bool {
	res, phase := p.m.ApplyPhase(bst.BatchOp{Kind: kind, Key: k})
	if res {
		var buf [pointRecordMax]byte
		p.mustAppend(appendPointRecord(buf[:0], rec, k, phase), phase)
	}
	return res
}

// ApplyBatch applies a vector of point ops with the map's batch
// semantics (per-op linearizable, not atomic); all the batch's effective
// updates are logged as ONE frame, so replay applies them all-or-nothing
// and a torn tail can never expose half a batch.
func (p *Map) ApplyBatch(ops []bst.BatchOp, res []bool) {
	// Batches of up to 64 ops keep their phases and their record group
	// on the stack.
	var stack [64]uint64
	var groupBuf [64 * pointRecordMax]byte
	var phases []uint64
	var group []byte
	if len(ops) <= len(stack) {
		phases = stack[:len(ops)]
		group = groupBuf[:0]
	} else {
		phases = make([]uint64, len(ops))
	}
	p.m.ApplyBatchPhases(ops, res, phases)
	var maxPhase uint64
	for i, op := range ops {
		if !res[i] {
			continue // ineffective (or Contains): no membership flip to log
		}
		switch op.Kind {
		case bst.BatchInsert:
			group = appendPointRecord(group, recInsert, op.Key, phases[i])
		case bst.BatchDelete:
			group = appendPointRecord(group, recDelete, op.Key, phases[i])
		default:
			continue
		}
		if phases[i] > maxPhase {
			maxPhase = phases[i]
		}
	}
	if len(group) > 0 {
		p.mustAppend(group, maxPhase)
	}
}

// BulkLoad ingests a strictly ascending key sequence through the
// migration-cut fast path and logs it as one load record stamped with
// the cut phase.
func (p *Map) BulkLoad(keys []int64) (int, error) {
	if len(keys) == 0 {
		return 0, nil
	}
	p.cutMu.Lock()
	defer p.cutMu.Unlock()
	added, cut, err := p.m.BulkLoadPhase(keys)
	if err != nil {
		return added, err
	}
	// Log the whole vector even when some keys were already present:
	// replay treats a load as a union at the cut phase, which is
	// idempotent per key, and the vector is what was made durable.
	p.mustAppend(appendLoadRecord(nil, keys, cut), cut)
	return added, nil
}

// Read path: straight delegation.

func (p *Map) Contains(k int64) bool                            { return p.m.Contains(k) }
func (p *Map) RangeScanFunc(a, b int64, visit func(int64) bool) { p.m.RangeScanFunc(a, b, visit) }
func (p *Map) RangeScan(a, b int64) []int64                     { return p.m.RangeScan(a, b) }
func (p *Map) RangeCount(a, b int64) int                        { return p.m.RangeCount(a, b) }
func (p *Map) Keys() []int64                                    { return p.m.Keys() }
func (p *Map) Len() int                                         { return p.m.Len() }
func (p *Map) Min() (int64, bool)                               { return p.m.Min() }
func (p *Map) Max() (int64, bool)                               { return p.m.Max() }
func (p *Map) Succ(k int64) (int64, bool)                       { return p.m.Succ(k) }
func (p *Map) Pred(k int64) (int64, bool)                       { return p.m.Pred(k) }

// CheckpointStats describes one completed checkpoint.
type CheckpointStats struct {
	Cut  uint64 // the snapshot's phase: the image is exactly T_cut
	Keys int    // keys streamed
	Path string
	Took time.Duration
}

// Checkpoint streams a consistent image of the map to disk and truncates
// the WAL behind it, without ever stalling writers:
//
//  1. rotate the WAL — every record already appended now sits durably in
//     a segment below the new one, and its commit phase is <= the clock
//     at rotation time;
//  2. open ONE wait-free snapshot cut on the shared clock (phase c >=
//     the rotation-time clock, so every pre-rotation record has phase <=
//     c and is covered by the image);
//  3. stream the snapshot — writers run at full speed against the live
//     map while the frozen cut serializes to ckpt-<c>.tmp;
//  4. fsync, rename into place, fsync the directory — the atomic commit
//     point of the checkpoint;
//  5. delete WAL segments below the rotation point and older checkpoint
//     files (checkpoint-then-truncate; records in dropped segments are
//     all phase <= c, hence in the image).
//
// A crash before step 4's rename leaves the previous checkpoint and the
// full WAL — nothing lost; after it, the new image plus the surviving
// segments — replay filters the already-covered records by phase.
func (p *Map) Checkpoint() (CheckpointStats, error) {
	p.ckptMu.Lock()
	defer p.ckptMu.Unlock()
	if p.closed.Load() {
		return CheckpointStats{}, errors.New("persist: checkpoint on a closed Map")
	}
	start := time.Now()

	p.cutMu.Lock()
	keepSeg, err := p.wal.rotate()
	if err != nil {
		p.cutMu.Unlock()
		return CheckpointStats{}, err
	}
	snap := p.m.Snapshot()
	p.cutMu.Unlock()
	defer snap.Release()

	cut := snap.Seq()
	path, n, err := writeCheckpoint(p.cfg.Dir, cut, snap, p.cfg.CheckpointBlock, p.ckptGate)
	if err != nil {
		return CheckpointStats{}, err
	}
	if err := p.wal.dropBefore(keepSeg); err != nil {
		return CheckpointStats{}, err
	}
	if err := removeCheckpointsBelow(p.cfg.Dir, cut); err != nil {
		return CheckpointStats{}, err
	}
	p.checkpoints.Add(1)
	p.lastCut.Store(cut)
	p.lastCkptNS.Store(time.Now().UnixNano())
	st := CheckpointStats{Cut: cut, Keys: n, Path: path, Took: time.Since(start)}
	// Flight-record at the atomic commit point, stamped with the cut —
	// the phase at which the on-disk image equals the in-memory map.
	// Payload: keys streamed, wall time spent, durable phase watermark
	// at emit.
	obs.Emit(obs.EventCheckpoint, obs.KindCheckpointDone, -1, cut,
		int64(n), int64(st.Took), obs.SaturateInt64(p.wal.syncedPhase.Load()))
	if p.cfg.Logf != nil {
		p.cfg.Logf("persist: checkpoint cut=%d keys=%d took=%s", st.Cut, st.Keys, st.Took)
	}
	return st, nil
}

// StartAutoCheckpoint checkpoints every interval on a background
// goroutine until the returned stop function is called (idempotent;
// waits for an in-flight checkpoint to finish). Errors are reported via
// cfg.Logf and the next Stats.
func (p *Map) StartAutoCheckpoint(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if _, err := p.Checkpoint(); err != nil {
					p.ckptErrs.Add(1)
					if p.cfg.Logf != nil {
						p.cfg.Logf("persist: background checkpoint failed: %v", err)
					}
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-finished
	}
}

// Stats is a point-in-time reading of the durability counters.
type Stats struct {
	Checkpoints      uint64 // completed checkpoints
	CheckpointErrs   uint64 // failed background checkpoints
	LastCut          uint64 // cut phase of the newest checkpoint
	WALAppends       uint64 // record groups appended
	WALSyncs         uint64 // fsyncs performed (leader syncs cover groups)
	CurrentSegment   uint64
	DurableWatermark uint64 // append groups known durable
	DurablePhase     uint64 // highest commit phase known durable
	LastCheckpointNS int64  // wall time (UnixNano) the newest checkpoint committed, 0 if none
}

// Stats returns the durability counters.
func (p *Map) Stats() Stats {
	p.wal.mu.Lock()
	seg := p.wal.seg
	p.wal.mu.Unlock()
	return Stats{
		Checkpoints:      p.checkpoints.Load(),
		CheckpointErrs:   p.ckptErrs.Load(),
		LastCut:          p.lastCut.Load(),
		WALAppends:       p.wal.appends.Load(),
		WALSyncs:         p.wal.syncs.Load(),
		CurrentSegment:   seg,
		DurableWatermark: p.wal.synced.Load(),
		DurablePhase:     p.wal.syncedPhase.Load(),
		LastCheckpointNS: p.lastCkptNS.Load(),
	}
}

// Close flushes and fsyncs the WAL and closes it — the drain path's last
// durability step (cmd/bstserver runs it after the listener drains, so a
// SIGTERM exit leaves a fully synced log). Updates after Close panic.
func (p *Map) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}
	return p.wal.close()
}
