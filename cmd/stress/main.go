// Command stress runs a long-lived adversarial workload against the
// PNB-BST (or the keyspace-sharded front end over it) and continuously
// checks correctness: per-key balance accounting, scan well-formedness,
// snapshot stability, and full structural invariants at periodic
// quiescence points. Memory is sampled periodically (HeapAlloc,
// HeapObjects, version-graph size) so long runs surface version leaks,
// and a cross-round leak check fails the run if the post-GC heap keeps
// growing after every round's instance has been dropped.
//
// Usage:
//
//	stress [-impl pnbbst|sharded[<N>]] [-shards 8] [-duration 30s] [-threads N] [-keys 4096]
//	       [-seed 1] [-compact] [-rebalance] [-zipf 1.2] [-mem 1s]
//	stress -soak [-duration 30s] [-conns 4] [-keys 16384] [-shards 8] [-rate 50000] [-zipf 1.2] [-seed 1]
//	       [-persist DIR] [-checkpoint-every 1s]
//
// With -soak the rounds machinery is replaced by the all-features-on
// soak (internal/scenario): a real TCP server over the sharded map with
// auto-rebalance and auto-compact live, driven by zipf-skewed update
// load plus a drifting TTL working set (open loop with -rate), while
// mover/tear-scanner, oracle, stats-monotonicity and heap checkers audit
// continuously. -persist adds the durability axis: every update is
// WAL-logged, checkpoints stream every -checkpoint-every under full
// churn, and teardown recovers the directory from scratch and fails the
// run unless the image equals the final live set. SIGINT/SIGTERM ends
// the soak early but gracefully — the workload drains, the audits
// complete, and the exit status still reflects them. Exit 0 iff every
// invariant held (SoakReport.Ok).
//
// The -impl/-shards/-rebalance/-zipf cluster is the shared
// harness.TargetFlags wiring (same spellings and validation as
// cmd/benchbst and cmd/bstserver); stress additionally restricts -impl
// to the PNB-BST family, since the baselines lack the scan/snapshot
// surfaces the checkers drive.
//
// With -compact a pruner goroutine runs Compact concurrently with the
// chaos, exercising the version-reclamation path under full adversarial
// load (scans + snapshots + updates); the quiescent checks then also
// verify that pruning reduced the version graph to O(set size).
//
// With -rebalance (sharded only) a load-driven rebalancer splits and
// merges shards concurrently with everything above, so routing-table
// migrations race updates, scans, snapshots and (with -compact) pruning.
// Pair it with -zipf to skew updater keys onto one shard (clustered
// zipfian), which makes the rebalancer actually migrate; uniform load
// correctly leaves the partition alone.
//
// Every round prints its effective seed before running, and every worker
// re-prints it if it panics, so any failing interleaving can be replayed
// with -seed. Exit status 0 means every check passed.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/scenario"
	"repro/internal/shard"
	"repro/internal/workload"
)

func main() {
	var (
		duration = flag.Duration("duration", 30*time.Second, "total stress time")
		threads  = flag.Int("threads", runtime.GOMAXPROCS(0), "updater goroutines")
		keys     = flag.Int64("keys", 4096, "key-space size")
		seed     = flag.Uint64("seed", 1, "PRNG seed (each failing round reprints its derived seed for replay)")
		compact  = flag.Bool("compact", false, "run a concurrent version pruner (Compact) during every round")
		memEvery = flag.Duration("mem", time.Second, "memory report interval during rounds (0 disables)")
		soak     = flag.Bool("soak", false, "run the all-features-on soak (TCP serving + rebalance + compact + drift/TTL + continuous audits) instead of rounds")
		conns    = flag.Int("conns", 4, "soak: workload connections")
		rate     = flag.Float64("rate", 0, "soak: open-loop total offered ops/s; 0 = closed loop")
		persist  = flag.String("persist", "", "soak: durability directory (WAL + periodic checkpoints under churn, recovery verified at teardown); empty disables")
		ckEvery  = flag.Duration("checkpoint-every", time.Second, "soak: checkpoint interval with -persist")
	)
	target := harness.RegisterTargetFlags(flag.CommandLine, "pnbbst", true)
	flag.Parse()

	// The flight recorder is always on under stress: its phase-stamped
	// tail is the first artifact to read after a failure, and the soak
	// audits it at teardown.
	obs.SetEnabled(true)
	defer obs.DumpOnSIGQUIT(os.Stderr)()

	if *soak {
		os.Exit(runSoak(soakArgs{
			duration: *duration, conns: *conns, keys: *keys,
			shards: target.Shards, rate: *rate, zipf: target.Zipf(), seed: *seed,
			persist: *persist, ckptEvery: *ckEvery,
		}))
	}

	name, err := target.Resolve(*keys)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stress:", err)
		os.Exit(2)
	}
	if _, _, _, err := makeTarget(name, *keys); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	extra := ""
	if *compact {
		extra += " + 1 pruner"
	}
	if _, auto := harness.ParseShardedAutoTarget(name); auto {
		extra += " + 1 rebalancer"
	}
	fmt.Printf("stress: %s, %v, %d updaters + 2 scanners + 1 snapshotter%s, %d keys, seed %d\n",
		name, *duration, *threads, extra, *keys, *seed)

	deadline := time.Now().Add(*duration)
	rounds := 0
	var baselineObjects uint64
	for time.Now().Before(deadline) {
		roundDur := 2 * time.Second
		if rem := time.Until(deadline); rem < roundDur {
			roundDur = rem
		}
		roundSeed := *seed + uint64(rounds)
		fmt.Printf("round %d: seed=%d (replay: -seed %d)\n", rounds, roundSeed, roundSeed)
		var msBefore runtime.MemStats
		runtime.ReadMemStats(&msBefore)
		if err := round(name, roundDur, *threads, *keys, roundSeed, *compact, target.Zipf(), *memEvery); err != nil {
			fmt.Fprintf(os.Stderr, "FAIL (round %d, seed %d): %v\n", rounds, roundSeed, err)
			os.Exit(1)
		}
		rounds++
		// Cross-round leak check: each round's instance is garbage now, so
		// the post-GC heap must return to (near) the first round's level.
		objects := heapObjects()
		var msAfter runtime.MemStats
		runtime.ReadMemStats(&msAfter)
		fmt.Printf("round %d ok (post-GC heap objects: %d, round GC: %d cycles, %v pause, %d mallocs)\n",
			rounds, objects, msAfter.NumGC-msBefore.NumGC,
			time.Duration(msAfter.PauseTotalNs-msBefore.PauseTotalNs),
			msAfter.Mallocs-msBefore.Mallocs)
		if rounds == 1 {
			baselineObjects = objects
		} else if objects > 3*baselineObjects+1<<20 {
			fmt.Fprintf(os.Stderr, "FAIL: heap objects grew from %d (round 1) to %d (round %d): leak\n",
				baselineObjects, objects, rounds)
			os.Exit(1)
		}
	}
	fmt.Println("stress:", obs.Default.Summary())
	fmt.Printf("PASS: %d rounds\n", rounds)
}

// soakArgs carries the flag subset the soak mode consumes.
type soakArgs struct {
	duration  time.Duration
	conns     int
	keys      int64
	shards    int
	rate      float64
	zipf      float64
	seed      uint64
	persist   string
	ckptEvery time.Duration
}

// runSoak runs the all-features-on soak with graceful signal handling
// and returns the process exit code: 0 iff every audited invariant held.
func runSoak(a soakArgs) int {
	if a.zipf != 0 && a.zipf <= 1 {
		fmt.Fprintf(os.Stderr, "stress: -zipf must be > 1 (got %g); 0 uses the soak default\n", a.zipf)
		return 2
	}
	stop := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		got := <-sig
		fmt.Printf("stress: %v: stopping soak early (audits still run)\n", got)
		close(stop)
	}()

	fmt.Printf("stress: soak %v, %d conns, %d keys, %d shards, rate=%g, seed %d\n",
		a.duration, a.conns, a.keys, a.shards, a.rate, a.seed)
	rep, err := scenario.Soak(scenario.SoakConfig{
		Duration:        a.duration,
		Conns:           a.conns,
		KeyRange:        a.keys,
		Shards:          a.shards,
		Rate:            a.rate,
		ZipfSkew:        a.zipf,
		Seed:            a.seed,
		PersistDir:      a.persist,
		CheckpointEvery: a.ckptEvery,
		Logf: func(format string, args ...any) {
			fmt.Printf("  "+format+"\n", args...)
		},
		Stop: stop,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "stress: soak:", err)
		return 1
	}
	fmt.Println(rep)
	fmt.Println("stress:", obs.Default.Summary())
	if !rep.Ok() {
		fmt.Fprintln(os.Stderr, "FAIL: soak invariants violated")
		return 1
	}
	fmt.Println("PASS: soak")
	return 0
}

// heapObjects returns the post-GC live heap object count.
func heapObjects() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapObjects
}

// set is the surface the stress rounds drive; both *core.Tree and
// *shard.Set satisfy it.
type set interface {
	Insert(k int64) bool
	Delete(k int64) bool
	Find(k int64) bool
	RangeScanFunc(a, b int64, visit func(k int64) bool)
	Len() int
	CheckInvariants() error
	Stats() core.StatsSnapshot
	Compact() core.CompactStats
	VersionGraphSize() int
}

// snapView is the common shape of the two Snapshot types: stable reads
// plus Release, so the snapshotter can withdraw its horizon pin.
type snapView interface {
	Len() int
	Release()
}

// makeTarget builds the implementation under stress from its canonical
// harness target name (TargetFlags.Resolve output), plus a snapshot
// factory (the two Snapshot methods return distinct types, so the
// common shape is adapted through a closure) and, for sharded targets,
// the shard.Set itself (so the round can drive the rebalancer of an
// -auto target and stop it before the quiescent checks). Only the
// PNB-BST family is stressable: the checkers need linearizable scans
// and snapshots.
func makeTarget(name string, keyRange int64) (set, func() snapView, *shard.Set, error) {
	if name == harness.TargetPNBBST {
		t := core.New()
		return t, func() snapView { return t.Snapshot() }, nil, nil
	}
	n, ok := harness.ParseAnySharded(name)
	if !ok {
		return nil, nil, nil, fmt.Errorf("stress: -impl %q unsupported (have pnbbst and the sharded family; the baselines lack checkable scans)", name)
	}
	s := shard.NewRange(0, keyRange-1, n)
	return s, func() snapView { return s.Snapshot() }, s, nil
}

// guard re-prints the round's seed when the calling goroutine panics, so
// the interleaving can be replayed with -seed, then re-panics.
func guard(seed uint64) {
	if r := recover(); r != nil {
		fmt.Fprintf(os.Stderr, "PANIC (replay with -seed %d): %v\n", seed, r)
		obs.Default.DumpTo(os.Stderr) // flight recorder's last seconds, next to the stack
		panic(r)
	}
}

// round runs one bounded burst of chaos and then verifies quiescent state.
func round(name string, d time.Duration, threads int, keyRange int64, seed uint64, compact bool, zipf float64, memEvery time.Duration) error {
	defer guard(seed)
	tr, snapshot, shardSet, err := makeTarget(name, keyRange)
	if err != nil {
		return err
	}
	_, rebalance := harness.ParseShardedAutoTarget(name)
	balance := make([]atomic.Int64, keyRange)
	var stop atomic.Bool
	var wg sync.WaitGroup
	errc := make(chan error, threads+3)

	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer guard(seed)
			rng := workload.NewRNG(seed*131 + uint64(w))
			var gen workload.KeyGen = workload.Uniform{Lo: 0, Hi: keyRange}
			if zipf > 1 {
				gen = workload.NewZipfClustered(0, keyRange, zipf)
			}
			for !stop.Load() {
				k := gen.Key(rng)
				if rng.Intn(2) == 0 {
					if tr.Insert(k) {
						balance[k].Add(1)
					}
				} else {
					if tr.Delete(k) {
						balance[k].Add(-1)
					}
				}
			}
		}(w)
	}
	// Scanners check well-formedness continuously.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			defer guard(seed)
			rng := workload.NewRNG(seed*977 + uint64(s))
			for !stop.Load() {
				a := rng.Intn(keyRange)
				b := a + rng.Intn(keyRange/4+1)
				prev := int64(-1 << 62)
				ok := true
				tr.RangeScanFunc(a, b, func(k int64) bool {
					if k < a || k > b || k <= prev {
						ok = false
						return false
					}
					prev = k
					return true
				})
				if !ok {
					errc <- fmt.Errorf("malformed scan of [%d,%d]", a, b)
					return
				}
			}
		}(s)
	}
	// Snapshotter: every snapshot must read identically twice — even with
	// a concurrent pruner, because a live snapshot pins the horizon. The
	// snapshot is released afterwards so pruning can reclaim its phase.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer guard(seed)
		for !stop.Load() {
			snap := snapshot()
			a := snap.Len()
			b := snap.Len()
			snap.Release()
			if a != b {
				errc <- fmt.Errorf("snapshot unstable: %d then %d keys", a, b)
				return
			}
		}
	}()
	// Pruner: reclaim version memory concurrently with everything above.
	if compact {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer guard(seed)
			for !stop.Load() {
				tr.Compact()
				time.Sleep(50 * time.Millisecond)
			}
		}()
	}
	// Rebalancer: split/merge shards concurrently with everything above,
	// so routing migrations race updates, scans, snapshots and pruning.
	// It is stopped (and fully quiesced) before the post-round checks.
	var stopRb func()
	if rebalance {
		stopRb = shardSet.AutoRebalance(shard.RebalanceConfig{Interval: 10 * time.Millisecond})
	}
	// Memory reporter: HeapAlloc/HeapObjects alongside the op counters so
	// long adversarial runs surface version leaks as they happen.
	if memEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := time.Now().Add(memEvery)
			for !stop.Load() {
				if time.Now().Before(next) {
					time.Sleep(10 * time.Millisecond)
					continue
				}
				next = time.Now().Add(memEvery)
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				fmt.Printf("  [mem] heapAlloc=%.1fMB heapObjects=%d numGC=%d gcPause=%v\n",
					float64(ms.HeapAlloc)/(1<<20), ms.HeapObjects,
					ms.NumGC, time.Duration(ms.PauseTotalNs))
			}
		}()
	}

	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	if stopRb != nil {
		stopRb() // waits for any in-flight migration; quiescence restored
	}
	select {
	case err := <-errc:
		return err
	default:
	}

	// Quiescent verification.
	if err := tr.CheckInvariants(); err != nil {
		return fmt.Errorf("invariants: %w", err)
	}
	for k := int64(0); k < keyRange; k++ {
		b := balance[k].Load()
		present := tr.Find(k)
		if present && b != 1 || !present && b != 0 {
			return fmt.Errorf("key %d: balance %d, present %v", k, b, present)
		}
	}
	// With pruning requested, a final quiescent Compact (no scans or
	// snapshots are live, so the horizon is the counter itself) must
	// shrink the version graph to the current tree: O(set size) nodes,
	// however many updates the round performed.
	if compact {
		cs := tr.Compact()
		vg := tr.VersionGraphSize()
		perShard := 1 // sentinel overhead is per tree
		if shardSet != nil {
			perShard = shardSet.Shards() // the rebalancer may have changed the count
		}
		limit := 4*tr.Len() + 128*perShard + 128
		if vg > limit {
			return fmt.Errorf("version graph not reclaimed: %d nodes for %d keys (limit %d)", vg, tr.Len(), limit)
		}
		fmt.Printf("  compact ok: live=%d prunedLinks=%d graph=%d\n", cs.LiveNodes, cs.PrunedLinks, vg)
	}
	st := tr.Stats()
	fmt.Printf("  ops ok: len=%d helps=%d handshakeAborts=%d scans=%d horizonRetries=%d\n",
		tr.Len(), st.Helps, st.HandshakeAborts, st.Scans, st.RetriesHorizon)
	if rebalance {
		splits, merges := shardSet.Migrations()
		fmt.Printf("  rebalance ok: shards=%d splits=%d merges=%d\n", shardSet.Shards(), splits, merges)
	}
	return nil
}
