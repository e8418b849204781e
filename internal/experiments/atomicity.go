package experiments

import (
	"fmt"

	"repro/bst"
	"repro/internal/harness"
	"repro/internal/workload"
)

// E13Atomicity — atomic cross-shard scans (Fig./Table E13): what does
// the paper's linearizable-scan guarantee cost once the set is sharded,
// and what anomaly would a scan admit without it?
//
// Part 1 (throughput): the shared phase clock couples shards — every
// cross-shard scan advances the one clock, so a pending update in ANY
// shard can be handshake-aborted by a scan anywhere. The sweep drives an
// update-heavy mix plus wide scans (spanning many shards) through the
// sharded set and the single tree (one clock AND one root), by thread
// count.
//
// Part 2 (anomalies): the §5.2 cross-boundary move is forced
// deterministically from inside an in-flight scan's visitor. Each
// observation is judged against the seqset-oracle states the move's
// schedule allows (pre-, mid-, and post-move); an observation matching
// none of them is an anomaly. The atomic cut must report zero
// anomalies; a stitched scan (stitchedScan: one cut per shard, taken
// when the scan reaches it) tears on every trial, in both move
// directions — the composition the shared clock exists to rule out.
func E13Atomicity(o Options) {
	keys := o.scale(1 << 20)
	targets := []string{harness.TargetPNBBST, harness.ShardedTarget(8)}
	mixes := []struct {
		name string
		mix  workload.Mix
	}{
		{"45i/45d/10s(w=keys/4)", workload.Mix{InsertPct: 45, DeletePct: 45, ScanPct: 10, ScanWidth: keys / 4}},
		{"45i/45d/10s(w=100)", workload.Mix{InsertPct: 45, DeletePct: 45, ScanPct: 10, ScanWidth: 100}},
	}
	for _, m := range mixes {
		tab := harness.NewTable(
			fmt.Sprintf("E13: %s, %d keys — Mops/s by threads: atomic cross-shard scans vs one tree", m.name, keys),
			append([]string{"threads"}, targets...)...)
		for _, th := range o.threadSweep() {
			row := []any{th}
			for _, tgt := range targets {
				res := harness.Run(harness.Config{
					Target:   tgt,
					Threads:  th,
					Duration: o.Duration,
					KeyRange: keys,
					Prefill:  -1,
					Mix:      m.mix,
					Seed:     o.Seed,
				})
				row = append(row, res.MOpsPerSec())
			}
			tab.AddRow(row...)
		}
		o.emit(tab)
	}

	// Part 2: forced cross-boundary moves, 100 trials per direction.
	const trials = 100
	tab := harness.NewTable(
		"E13: forced cross-boundary move during a spanning scan — anomalous observations vs seqset oracle, per 100 trials",
		"scan", "move right (del,ins)", "move left (ins,del)")
	for _, mode := range []struct {
		name     string
		stitched bool
	}{{harness.ShardedTarget(4) + " (atomic cut)", false}, {harness.ShardedTarget(4) + " stitched", true}} {
		right := countScanAnomalies(mode.stitched, trials, true)
		left := countScanAnomalies(mode.stitched, trials, false)
		tab.AddRow(mode.name, right, left)
	}
	o.emit(tab)
}

// stitchedScan visits the keys of m in [a, b] one shard at a time:
// RangeScanFunc over each covered shard's bounds in turn, so every
// shard is cut at its own phase of the shared clock, opened only when
// the scan reaches that shard. Each piece is linearizable; the whole is
// not one cut — an update that lands between two pieces is visible to
// the later piece only. This is the per-shard composition whose tear
// E13 and E15 demonstrate; m.RangeScanFunc never behaves this way.
func stitchedScan(m *bst.ShardedMap, a, b int64, visit func(k int64) bool) {
	for i := m.ShardOf(a); i <= m.ShardOf(b); i++ {
		lo, hi := m.ShardBounds(i)
		stopped := false
		m.RangeScanFunc(max(a, lo), min(b, hi), func(k int64) bool {
			stopped = !visit(k)
			return !stopped
		})
		if stopped {
			return
		}
	}
}

// countScanAnomalies runs `trials` deterministic cross-boundary moves
// against a fresh 4-shard map over [0, 999] (boundaries at 250, 500,
// 750) and returns how many in-flight spanning scans — atomic, or
// stitched when stitched is set — observed a set of hot keys that
// matches NO state the sequential oracle admits.
//
// The item lives at exactly one of home=200 (shard 0, whose cut is in
// progress — and therefore phase-fixed — when the sentinel at 100 fires
// the visitor) or away=600 (shard 2, not yet cut). Legal atomic cuts of
// {home, away}: the pre-move state, the mid-move state (after the first
// point op), and the post-move state. moveRight runs Delete(home) then
// Insert(away) — states {home}, {}, {away}; an observation of BOTH is
// anomalous. moveLeft runs Insert(home) then Delete(away) — states
// {away}, {home, away}, {home}; an observation of NEITHER is anomalous.
// The stitched scan makes the updates in the phase-fixed shard 0
// invisible but the updates in not-yet-cut shard 2 visible, hitting the
// anomalous observation on every trial; the atomic cut makes the whole
// move invisible (it is entirely in the scan's future phase).
func countScanAnomalies(stitched bool, trials int, moveRight bool) int {
	anomalies := 0
	for trial := 0; trial < trials; trial++ {
		inst := bst.NewShardedRange(0, 999, 4)
		scan := inst.RangeScanFunc
		if stitched {
			scan = func(a, b int64, visit func(k int64) bool) { stitchedScan(inst, a, b, visit) }
		}
		const sentinel, home, away = 100, 200, 600
		inst.Insert(sentinel)
		src, dst := int64(home), int64(away)
		if !moveRight {
			src, dst = away, home
		}
		inst.Insert(src)
		moved := false
		sawHome, sawAway := false, false
		scan(0, 999, func(k int64) bool {
			if !moved {
				moved = true
				if moveRight {
					inst.Delete(src)
					inst.Insert(dst)
				} else {
					inst.Insert(dst)
					inst.Delete(src)
				}
			}
			switch k {
			case home:
				sawHome = true
			case away:
				sawAway = true
			}
			return true
		})
		if moveRight && sawHome && sawAway {
			anomalies++ // home and away were never both present
		}
		if !moveRight && !sawHome && !sawAway {
			anomalies++ // home ∪ away was never empty
		}
	}
	return anomalies
}
