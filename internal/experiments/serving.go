package experiments

import (
	"context"
	"fmt"
	"net"
	"time"

	"repro/bst"
	"repro/internal/harness"
	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

// E15Serving — the network serving layer end to end (DESIGN.md §8):
// what does the PNB-BST's headline guarantee cost, and does it survive,
// once scans are served over TCP to pipelined clients?
//
// Part 1 (throughput/latency): a real bstserver-equivalent
// (internal/server over bst.ShardedMap, loopback TCP) is driven by the
// closed-loop generator with an update-heavy mix plus shard-spanning
// scans, swept over client connections × pipeline depth. Pipelining is
// the serving layer's batching lever: depth 1 measures per-request RTT,
// deeper pipelines amortize syscalls until the store itself saturates.
//
// Part 2 (atomicity over the wire): the §5.2 cross-boundary-move
// anomaly, reconstructed with real sockets — the wire-level mirror of
// E13's in-process oracle check. A scanner client reads a streaming
// SCAN one frame at a time while the filler keys behind it jam the
// server's socket (small SockBuf + small client read buffer force the
// SCAN visitor to block mid-stream on TCP backpressure, i.e. the server
// is provably still inside the scan); a second client then moves a key
// from an already-streamed shard to a not-yet-streamed one and gets its
// acks before the scanner resumes. With the shared clock the whole scan
// was cut at one phase opened before the move, so the move is invisible
// (torn = 0, every trial); a stitched scan (one cut per shard, see
// stitchedScan) cuts the destination shard only when the stream
// resumes — after the move — so it observes BOTH the source and
// destination copies, a state the sequential oracle never admits
// (torn = every trial, deterministic).
func E15Serving(o Options) {
	keys := o.scale(1 << 18)
	pipelines := []int{1, 16, 64}
	const shards = 8
	mix := workload.Mix{InsertPct: 45, DeletePct: 45, ScanPct: 10, ScanWidth: keys / shards}

	{
		m := bst.NewShardedRange(0, keys-1, shards)
		prefillStore(m, keys, o.Seed)
		srv, err := server.Start(server.Config{Addr: "127.0.0.1:0", Store: m})
		if err != nil {
			fmt.Fprintf(o.Out, "E15: %v\n", err)
			return
		}

		tab := harness.NewTable(
			fmt.Sprintf("E15: atomic scans over TCP, %d keys, %d shards, mix 45i/45d/10s(w=keys/%d) — Kops/s by conns × pipeline depth",
				keys, shards, shards),
			"conns", "pipe=1", "pipe=16", "pipe=64")
		sweep := o.threadSweep()
		lastRow := map[int]*loadgen.Result{}
		for _, conns := range sweep {
			row := []any{conns}
			for _, p := range pipelines {
				res, err := loadgen.Run(loadgen.Config{
					Addr:     srv.Addr().String(),
					Conns:    conns,
					Pipeline: p,
					Duration: o.Duration,
					KeyRange: keys,
					Prefill:  0, // the store is prefilled in-process, once
					Mix:      mix,
					Seed:     o.Seed,
				})
				if err != nil {
					fmt.Fprintf(o.Out, "E15: %v\n", err)
					shutdownServer(srv)
					return
				}
				row = append(row, res.Throughput/1e3)
				if conns == sweep[len(sweep)-1] {
					lastRow[p] = res
				}
			}
			tab.AddRow(row...)
		}
		o.emit(tab)

		lat := harness.NewTable(
			fmt.Sprintf("E15: client-observed latency at conns=%d, by pipeline depth",
				sweep[len(sweep)-1]),
			"pipeline", "point p50", "point p99", "scan p50", "scan p99")
		for _, p := range pipelines {
			if res := lastRow[p]; res != nil {
				lat.AddRow(p,
					time.Duration(res.PointLat.Percentile(50)).String(),
					time.Duration(res.PointLat.Percentile(99)).String(),
					time.Duration(res.ScanLat.Percentile(50)).String(),
					time.Duration(res.ScanLat.Percentile(99)).String())
			}
		}
		o.emit(lat)
		shutdownServer(srv)
	}

	// Part 1.5: the MBATCH lever. Same server, point-only update mix,
	// fixed conns × pipeline; only the client-side batch size varies.
	// Batch=1 sends one frame per op (the pre-MBATCH wire); larger
	// batches amortize framing, opcode dispatch, and — server-side — the
	// phase read and pin-stripe acquisition across the whole vector.
	// Accounting is per-op (a batch of k counts as k), so the column is
	// directly comparable across rows.
	{
		batches := []int{1, 4, 8, 32}
		conns := o.threadSweep()[len(o.threadSweep())-1]
		pointMix := workload.Mix{InsertPct: 45, DeletePct: 45}
		m := bst.NewShardedRange(0, keys-1, shards)
		prefillStore(m, keys, o.Seed)
		srv, err := server.Start(server.Config{Addr: "127.0.0.1:0", Store: m})
		if err != nil {
			fmt.Fprintf(o.Out, "E15: %v\n", err)
			return
		}
		tab := harness.NewTable(
			fmt.Sprintf("E15: MBATCH batch-size sweep — conns=%d, pipe=16, mix 45i/45d/10f, %d keys, %d shards",
				conns, keys, shards),
			"batch", "Kops/s", "point p50", "point p99")
		for _, b := range batches {
			res, err := loadgen.Run(loadgen.Config{
				Addr:     srv.Addr().String(),
				Conns:    conns,
				Pipeline: 16,
				Batch:    b,
				Duration: o.Duration,
				KeyRange: keys,
				Prefill:  0,
				Mix:      pointMix,
				Seed:     o.Seed,
			})
			if err != nil {
				fmt.Fprintf(o.Out, "E15: %v\n", err)
				shutdownServer(srv)
				return
			}
			tab.AddRow(b, res.Throughput/1e3,
				time.Duration(res.PointLat.Percentile(50)).String(),
				time.Duration(res.PointLat.Percentile(99)).String())
		}
		o.emit(tab)
		shutdownServer(srv)
	}

	// Part 2: the forced cross-shard move against an in-flight wire scan.
	trials := 20
	if o.Quick {
		trials = 5
	}
	tab := harness.NewTable(
		fmt.Sprintf("E15: pipelined SCAN vs concurrent cross-shard move over the wire — torn scans per %d trials", trials),
		"scan", "torn scans", "trials")
	for _, mode := range []struct {
		name     string
		stitched bool
	}{{"atomic (one cut)", false}, {"stitched (one cut per shard)", true}} {
		torn, err := WireTearCheck(mode.stitched, trials)
		if err != nil {
			fmt.Fprintf(o.Out, "E15: tear check (%s): %v\n", mode.name, err)
			return
		}
		tab.AddRow(mode.name, torn, trials)
	}
	o.emit(tab)
}

// prefillStore inserts keys/2 distinct random keys directly (the server
// store is in-process here, so no need to pay the wire for prefill).
func prefillStore(m *bst.ShardedMap, keys int64, seed uint64) {
	rng := workload.NewRNG(seed ^ 0xDEADBEEF)
	inserted := int64(0)
	for inserted < keys/2 {
		if m.Insert(rng.Intn(keys)) {
			inserted++
		}
	}
}

func shutdownServer(srv *server.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx) //nolint:errcheck
}

// stitchedStore serves a map whose RangeScanFunc is stitchedScan, so a
// wire SCAN of it is cut shard by shard; every other method is the
// map's own.
type stitchedStore struct{ *bst.ShardedMap }

func (s stitchedStore) RangeScanFunc(a, b int64, visit func(k int64) bool) {
	stitchedScan(s.ShardedMap, a, b, visit)
}

// WireTearCheck runs `trials` deterministic cross-shard moves against a
// pipelined wire SCAN and returns how many scans observed a torn state
// (both the pre-move and post-move copy of the moved key — a set no
// atomic cut admits, exactly E13's oracle rule). With stitched set the
// server's store scans through stitchedScan instead of one atomic cut.
//
// Determinism does not rely on sleeps. The store holds `fillers` keys in
// shard 1, between the scanner's marker key (home, shard 0) and the
// move destination (away, shard 2). The server streams the scan one key
// per frame into deliberately tiny socket buffers (Config.SockBuf, plus
// a small client-side read buffer), and the scanner stops reading right
// after the home frame: the filler stream then overfills every buffer
// between server and client — filler bytes exceed total buffering ~6× —
// so the server's scan visitor is blocked in a socket write INSIDE
// shard 1, before a stitched scan has cut shard 2. The mover's
// delete(home)+insert(away) round trips complete on their own
// connection during the stall; then the scanner drains the rest. A
// stitched scan therefore reports home (cut before the delete) AND away
// (cut after the insert) — torn, every trial; the atomic scan's single
// phase predates the move entirely — torn never.
func WireTearCheck(stitched bool, trials int) (torn int, err error) {
	const (
		keyRange = 1 << 20
		shards   = 4
		fillers  = 20000
		sockBuf  = 8 << 10
		home     = int64(1000)              // shard 0: [0, 256Ki)
		away     = int64(keyRange/2 + 1000) // shard 2: [512Ki, 768Ki)
		fillerLo = int64(keyRange / 4)      // shard 1: [256Ki, 512Ki)
	)
	m := bst.NewShardedRange(0, keyRange-1, shards)
	for i := int64(0); i < fillers; i++ {
		m.Insert(fillerLo + i*8)
	}
	m.Insert(home)
	var store server.Store = m
	if stitched {
		store = stitchedStore{m}
	}

	srv, err := server.Start(server.Config{
		Addr:      "127.0.0.1:0",
		Store:     store,
		ScanBatch: 1, // one key per frame: the home marker arrives alone
		SockBuf:   sockBuf,
	})
	if err != nil {
		return 0, err
	}
	defer shutdownServer(srv)

	scanner, err := wire.Dial(srv.Addr().String())
	if err != nil {
		return 0, err
	}
	defer scanner.Close()
	if tc, ok := scanner.Conn().(*net.TCPConn); ok {
		tc.SetReadBuffer(sockBuf) //nolint:errcheck // shrinks client-side slack
	}
	mover, err := wire.Dial(srv.Addr().String())
	if err != nil {
		return 0, err
	}
	defer mover.Close()

	for trial := 0; trial < trials; trial++ {
		// Re-arm the throttle for this trial's stall phase (the drain
		// phase of the previous trial opened the window back up).
		if tc, ok := scanner.Conn().(*net.TCPConn); ok {
			tc.SetReadBuffer(sockBuf) //nolint:errcheck
		}
		if err := scanner.Send(wire.Request{Op: wire.OpScan, A: 0, B: keyRange - 1}); err != nil {
			return torn, err
		}
		sawHome, sawAway, moved := false, false, false
		for {
			resp, err := scanner.Recv()
			if err != nil {
				return torn, err
			}
			if resp.Tag == wire.TagDone {
				break
			}
			if resp.Tag != wire.TagBatch {
				return torn, fmt.Errorf("scan reply tagged %d", resp.Tag)
			}
			for _, k := range resp.Keys {
				switch k {
				case home:
					sawHome = true
				case away:
					sawAway = true
				}
			}
			if sawHome && !moved {
				moved = true
				// The server is (or is about to be) wedged on filler
				// backpressure inside shard 1. Move the key across the
				// not-yet-streamed boundary and wait for both acks.
				if _, err := mover.Delete(home); err != nil {
					return torn, err
				}
				if _, err := mover.Insert(away); err != nil {
					return torn, err
				}
				// Forcing done for this trial: stop throttling the drain
				// (the tiny receive window otherwise turns the remaining
				// filler stream into a parade of window-update stalls).
				if tc, ok := scanner.Conn().(*net.TCPConn); ok {
					tc.SetReadBuffer(1 << 20) //nolint:errcheck
				}
			}
		}
		if sawHome && sawAway {
			torn++
		}
		// Restore the pre-trial state (in-process: instant).
		m.Delete(away)
		m.Insert(home)
	}
	return torn, nil
}
