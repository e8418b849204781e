// Command bstserver serves a PNB-BST-backed ordered key set over TCP
// using the internal/wire protocol: INSERT/DELETE/CONTAINS point ops,
// streaming SCAN served from a single phase-clock cut (the paper's
// linearizable-scan guarantee, preserved across the wire — DESIGN.md
// §8), COUNT/MIN/MAX/SUCC/PRED/LEN ordered queries, and STATS.
//
// Usage:
//
//	bstserver -addr :7700 [-metrics :7701] [-impl sharded] [-shards 8] [-keys 1048576]
//	bstserver -impl sharded -rebalance    # online load-driven splits/merges
//	bstserver -impl sharded -shards 1     # one tree, no sharding
//
// Only sharded targets are servable: -impl pnbbst exits 2 and points at
// -impl sharded -shards 1, which serves one tree with the MBATCH and
// MLOAD paths a lone tree lacks.
//
// -keys declares the key interval [0, keys) the workload concentrates
// on; the shard boundaries split it (the full int64 space stays storable
// either way). -compact runs periodic version-memory pruning so a
// long-lived server's heap tracks the live set, not the update count.
//
// -persist DIR makes the served set durable (DESIGN.md §12): updates are
// phase-stamped into a group-fsynced WAL before they are acknowledged,
// -checkpoint-every streams periodic wait-free snapshot checkpoints that
// truncate the log, and startup recovers newest-checkpoint + WAL-replay
// before the listener opens.
//
// On SIGINT/SIGTERM the server drains gracefully: it stops accepting,
// finishes in-flight and pipelined requests, flushes (and with -persist,
// fsyncs and closes the WAL), and exits 0 — the CI smoke jobs assert
// exactly this. cmd/loadgen is the matching closed-loop client and
// cmd/bstctl the scriptable probe.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/bst"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7700", "TCP listen address")
		metrics  = flag.String("metrics", "", "HTTP metrics listen address (/metrics, /healthz); empty disables")
		keys     = flag.Int64("keys", 1<<20, "key interval [0, keys) that shard boundaries split (sharded impls)")
		compact  = flag.Duration("compact", 0, "periodic version-memory pruning interval; 0 disables")
		drainFor = flag.Duration("drain", 10*time.Second, "graceful-drain budget on shutdown")
		sockBuf  = flag.Int("sockbuf", 0, "per-connection socket send/receive buffer in bytes; 0 = OS default")
		persDir  = flag.String("persist", "", "durability directory (WAL + checkpoints); empty disables")
		ckptIvl  = flag.Duration("checkpoint-every", 0, "periodic checkpoint interval with -persist; 0 = WAL only")
		walSync  = flag.Duration("wal-sync", 0, "WAL fsync window with -persist; 0 = group-commit every update")
		obsOn    = flag.Bool("obs", true, "record phase-stamped control-plane events (flight recorder; /events)")
		slowOp   = flag.Duration("slowop", 0, "flight-record requests slower than this (decode+apply+flush); 0 disables")
	)
	target := harness.RegisterTargetFlags(flag.CommandLine, harness.TargetSharded, false)
	flag.Parse()
	obs.SetEnabled(*obsOn)
	if *obsOn {
		// SIGQUIT dumps the event log before the runtime's goroutine dump.
		defer obs.DumpOnSIGQUIT(os.Stderr)()
	}

	name, store, stops, closeStore, err := buildStore(target, *keys, *compact, *persDir, *ckptIvl, *walSync)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bstserver:", err)
		os.Exit(2)
	}

	srv, err := server.Start(server.Config{
		Addr:        *addr,
		MetricsAddr: *metrics,
		Store:       store,
		SockBuf:     *sockBuf,
		SlowOp:      *slowOp,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bstserver:", err)
		os.Exit(1)
	}
	fmt.Printf("bstserver: serving %s on %s", name, srv.Addr())
	if m := srv.MetricsAddr(); m != nil {
		fmt.Printf(", metrics on http://%s/metrics", m)
	}
	fmt.Println()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("bstserver: %v: draining (budget %v)\n", got, *drainFor)
	ctx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	err = srv.Shutdown(ctx)
	for _, stop := range stops {
		stop()
	}
	// The WAL closes only after the listener has drained, so every
	// acknowledged in-flight update is flushed and fsynced before exit.
	if closeStore != nil {
		if cerr := closeStore(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if *obsOn {
		fmt.Println("bstserver:", obs.Default.Summary())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bstserver:", err)
		os.Exit(1)
	}
	fmt.Println("bstserver: drained cleanly")
}

// buildStore resolves the target cluster and constructs the served
// implementation, returning its canonical name, the stop functions of
// any background machinery (rebalancer, compactor, checkpointer), and a
// final closer that makes the WAL durable after the drain (nil without
// -persist).
func buildStore(target *harness.TargetFlags, keys int64, compact time.Duration, persDir string, ckptIvl, walSync time.Duration) (string, server.Store, []func(), func() error, error) {
	if keys < 1 {
		return "", nil, nil, nil, fmt.Errorf("-keys must be positive")
	}
	name, err := target.Resolve(keys)
	if err != nil {
		return "", nil, nil, nil, err
	}
	if name == harness.TargetPNBBST {
		return "", nil, nil, nil, fmt.Errorf("-impl %s is not servable: a single tree has no MBATCH or MLOAD path; serve one shard with -impl sharded -shards 1", name)
	}
	n, ok := harness.ParseAnySharded(name)
	if !ok {
		return "", nil, nil, nil, fmt.Errorf("-impl %s is not servable (use a sharded target; the baselines have no linearizable scans to serve)", name)
	}
	var stops []func()
	var closer func() error
	m := bst.NewShardedRange(0, keys-1, n)
	if _, auto := harness.ParseShardedAutoTarget(name); auto {
		stops = append(stops, m.StartAutoRebalance(bst.RebalanceConfig{}))
	}
	if compact > 0 {
		stops = append(stops, m.StartAutoCompact(compact))
	}
	var store server.Store = m
	if persDir != "" {
		// Open's Logf reports the recovery image line on startup.
		pm, _, err := persist.Open(persist.Config{
			Dir:       persDir,
			SyncEvery: walSync,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		}, m)
		if err != nil {
			return "", nil, nil, nil, fmt.Errorf("-persist %s: %w", persDir, err)
		}
		if ckptIvl > 0 {
			stops = append(stops, pm.StartAutoCheckpoint(ckptIvl))
		}
		store = pm
		closer = pm.Close
		name += "+persist"
	}
	return name, store, stops, closer, nil
}
