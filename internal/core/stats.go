package core

import "sync/atomic"

// Stats accumulates coarse operation counters. They live on cold or
// already-contended paths (retries, helping, aborts, scan starts), so the
// atomic adds do not perturb the fast path measurably; they exist so the
// benchmark harness and the E9 ablation can report retry/abort/help rates
// and the E12 memory experiment can report reclamation progress.
type Stats struct {
	retriesInsert   atomic.Uint64
	retriesDelete   atomic.Uint64
	retriesFind     atomic.Uint64
	retriesHorizon  atomic.Uint64
	helps           atomic.Uint64
	handshakeAborts atomic.Uint64
	scans           atomic.Uint64

	compactions   atomic.Uint64
	prunedLinks   atomic.Uint64
	lastLiveNodes atomic.Uint64
	lastHorizon   atomic.Uint64

	poolNodeHits atomic.Uint64
	poolNodePuts atomic.Uint64
	poolInfoHits atomic.Uint64
	poolInfoPuts atomic.Uint64
}

// StatsSnapshot is a plain-value copy of the counters.
type StatsSnapshot struct {
	RetriesInsert   uint64 // Insert attempts that had to restart
	RetriesDelete   uint64 // Delete attempts that had to restart
	RetriesFind     uint64 // Find traversals that failed validation
	RetriesHorizon  uint64 // traversals restarted after meeting a pruned chain
	Helps           uint64 // times one operation helped another
	HandshakeAborts uint64 // attempts aborted by the handshaking check
	Scans           uint64 // RangeScans + Snapshots taken (phases opened)

	Compactions   uint64 // Compact passes completed
	PrunedLinks   uint64 // prev links cut across all passes
	LastLiveNodes uint64 // |T_H| after the last pass: tree size at its horizon phase
	LastHorizon   uint64 // reclamation horizon of the last pass

	PoolNodeHits uint64 // node allocations served from the recycling pool
	PoolNodePuts uint64 // drained garbage nodes returned to the pool
	PoolInfoHits uint64 // info headers (each with the body it carries) and bare info bodies taken from the pools
	PoolInfoPuts uint64 // info headers (each carrying a zeroed body) and bare info bodies returned to the pools
}

// Stats returns a point-in-time copy of the tree's counters.
func (t *Map[V]) Stats() StatsSnapshot {
	return StatsSnapshot{
		RetriesInsert:   t.stats.retriesInsert.Load(),
		RetriesDelete:   t.stats.retriesDelete.Load(),
		RetriesFind:     t.stats.retriesFind.Load(),
		RetriesHorizon:  t.stats.retriesHorizon.Load(),
		Helps:           t.stats.helps.Load(),
		HandshakeAborts: t.stats.handshakeAborts.Load(),
		Scans:           t.stats.scans.Load(),
		Compactions:     t.stats.compactions.Load(),
		PrunedLinks:     t.stats.prunedLinks.Load(),
		LastLiveNodes:   t.stats.lastLiveNodes.Load(),
		LastHorizon:     t.stats.lastHorizon.Load(),
		PoolNodeHits:    t.stats.poolNodeHits.Load(),
		PoolNodePuts:    t.stats.poolNodePuts.Load(),
		PoolInfoHits:    t.stats.poolInfoHits.Load(),
		PoolInfoPuts:    t.stats.poolInfoPuts.Load(),
	}
}

// ResetStats zeroes all counters.
func (t *Map[V]) ResetStats() {
	t.stats.retriesInsert.Store(0)
	t.stats.retriesDelete.Store(0)
	t.stats.retriesFind.Store(0)
	t.stats.retriesHorizon.Store(0)
	t.stats.helps.Store(0)
	t.stats.handshakeAborts.Store(0)
	t.stats.scans.Store(0)
	t.stats.compactions.Store(0)
	t.stats.prunedLinks.Store(0)
	t.stats.lastLiveNodes.Store(0)
	t.stats.lastHorizon.Store(0)
	t.stats.poolNodeHits.Store(0)
	t.stats.poolNodePuts.Store(0)
	t.stats.poolInfoHits.Store(0)
	t.stats.poolInfoPuts.Store(0)
}
