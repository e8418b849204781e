package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/bst"
	"repro/internal/persist"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

// Every workload runs on the same store: a bst.ShardedMap of 8 shards
// over [0, K) compacted every 100 ms, uniform keys, the even keys of
// [0, K) present before the warm-up.
const (
	storeShards     = 8
	compactEvery    = 100 * time.Millisecond
	checkpointEvery = 2 * time.Second
)

// spec is one workload. All four are closed loops.
type spec struct {
	name, why string
	keyBits   uint // K = 1 << keyBits
	wire      bool // over server.Start on loopback TCP; otherwise in-process calls
	durable   bool // persist.Map (group commit) between the server and the map
	conns     int  // client connections; in process: one updater beside one scanner
	pipeline  int  // requests in flight per connection
	mix       workload.Mix
	warmup    uint64 // operations of the warm-up, all connections together
}

func (sp *spec) keys() int64 { return 1 << sp.keyBits }

var specs = []*spec{
	{
		name:    "wire-rtt",
		why:     "one request in flight on a cache-resident tree: unloaded round trip, wire+server+kernel do the work; per-request costs and latency-for-throughput trades show here first",
		keyBits: 16, wire: true, conns: 1, pipeline: 1, warmup: 320_000,
		mix: workload.Mix{InsertPct: 25, DeletePct: 25},
	},
	{
		name:    "wire-pipe",
		why:     "pipeline 16 with 1% streamed scans on a cache-missing tree: saturation throughput of the serving path, flush coalescing, shard/core paying cache misses",
		keyBits: 20, wire: true, conns: 1, pipeline: 16, warmup: 750_000,
		mix: workload.Mix{InsertPct: 25, DeletePct: 25, ScanPct: 1, ScanWidth: 512},
	},
	{
		name:    "wire-durable",
		why:     "90% updates through persist (group commit, fsync per ack, checkpoints beside writers): the only workload where persist works; bypassed by the other three",
		keyBits: 20, wire: true, durable: true, conns: 2, pipeline: 16, warmup: 25_000,
		mix: workload.Mix{InsertPct: 45, DeletePct: 45},
	},
	{
		name:    "lib-scan-churn",
		why:     "the paper's experiment, no sockets: wide scans beside an updater on one map; core/shard/epoch do all the work, so wire/server/persist changes must show no change here",
		keyBits: 20, conns: 1, warmup: 900_000,
		mix: workload.Mix{InsertPct: 50, DeletePct: 50},
	},
}

// libScanMix is the scanner's stream on lib-scan-churn: scans of key
// width 4096, about 2048 keys each on the half-full key space.
var libScanMix = workload.Mix{ScanPct: 100, ScanWidth: 4096}

func specByName(name string) *spec {
	for _, sp := range specs {
		if sp.name == name {
			return sp
		}
	}
	return nil
}

// evenKeys returns the prefill: the even keys of [0, k), ascending.
func evenKeys(k int64) []int64 {
	keys := make([]int64, 0, k/2)
	for x := int64(0); x < k; x += 2 {
		keys = append(keys, x)
	}
	return keys
}

// rig is one workload set up and ready to be driven.
type rig struct {
	sp             *spec
	m              *bst.ShardedMap
	pm             *persist.Map // nil unless durable
	shim           *tracedStore // nil on the metric run
	srv            *server.Server
	stopCompact    func()
	stopCheckpoint func()
	conns          []*connDriver
	upd            *libUpdater
	scn            *libScanner
}

// setup is what setup_s times: build the store (for wire-durable, by
// recovering the prepared image in walDir and checking it), start the
// server, prefill, and run the warm-up's fixed operation count.
func setup(sp *spec, seed uint64, tr *tracer, walDir string, warmup uint64) (r *rig, err error) {
	r = &rig{sp: sp}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	k := sp.keys()
	r.m = bst.NewShardedRange(0, k-1, storeShards)
	r.stopCompact = r.m.StartAutoCompact(compactEvery)
	var st store = r.m
	if sp.durable {
		if r.pm, _, err = persist.Open(persist.Config{Dir: walDir}, r.m); err != nil {
			return r, fmt.Errorf("recovering %s: %w", walDir, err)
		}
		if err = checkRecovered(r.m, k); err != nil {
			return r, err
		}
		r.stopCheckpoint = r.pm.StartAutoCheckpoint(checkpointEvery)
		st = r.pm
	}
	if tr != nil {
		r.shim = newTracedStore(st, tr, sp.conns)
		st = r.shim
	}

	// Each worker's oracle starts as its share of the prefill.
	owners := make([]*bitmap, sp.conns)
	for c := range owners {
		owners[c] = newBitmap(k)
	}
	prefill := evenKeys(k)
	for _, x := range prefill {
		owners[x%int64(sp.conns)].set(x)
	}

	if !sp.wire {
		if added, err := r.m.BulkLoad(prefill); err != nil || added != len(prefill) {
			return r, fmt.Errorf("BulkLoad added %d of %d keys: %v", added, len(prefill), err)
		}
		r.upd = &libUpdater{st: st, src: newOpSource(sp, sp.mix, seed, 0), own: owners[0], tr: tr}
		r.scn = &libScanner{m: r.m, src: newOpSource(sp, libScanMix, seed, 1)}
	} else {
		if r.srv, err = server.Start(server.Config{Addr: "127.0.0.1:0", Store: st}); err != nil {
			return r, err
		}
		for c := 0; c < sp.conns; c++ {
			nc, err := net.Dial("tcp", r.srv.Addr().String())
			if err != nil {
				return r, err
			}
			r.conns = append(r.conns, &connDriver{
				id: c, nc: nc, enc: wire.NewEncoder(nc), dec: wire.NewDecoder(nc),
				src: newOpSource(sp, sp.mix, seed, c), own: owners[c],
				ring: make([]pending, sp.pipeline), tr: tr,
			})
		}
		if !sp.durable { // the durable store was prefilled by recovery
			if err = r.conns[0].bulkLoad(prefill); err != nil {
				return r, err
			}
		}
	}
	r.drive(warmup/uint64(sp.conns), 0)
	return r, nil
}

// bulkLoad sends keys as one MLOAD run and checks the count it reports.
func (d *connDriver) bulkLoad(keys []int64) error {
	for rest := keys; ; {
		n := min(len(rest), wire.MLoadChunkCap)
		if err := d.enc.MLoad(rest[:n], n == len(rest)); err != nil {
			return err
		}
		if rest = rest[n:]; len(rest) == 0 {
			break
		}
	}
	if err := d.enc.Flush(); err != nil {
		return err
	}
	resp, err := d.dec.Response()
	if err != nil {
		return err
	}
	if resp.Tag != wire.TagInt || resp.Int != int64(len(keys)) {
		return fmt.Errorf("MLOAD of %d keys answered tag %#x int=%d msg=%q", len(keys), resp.Tag, resp.Int, resp.Msg)
	}
	return nil
}

// drive runs every worker of the load at once — one goroutine per
// connection, or the updater beside the scanner — and returns when all
// have stopped: after maxOps operations each (warm-up), or, with maxOps
// zero, when the clock passes until (the window).
func (r *rig) drive(maxOps uint64, until int64) {
	var wg sync.WaitGroup
	defer wg.Wait()
	if r.sp.wire {
		for _, d := range r.conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				d.run(maxOps, until)
			}()
		}
		return
	}
	var stop atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.scn.run(until, &stop)
	}()
	r.upd.run(maxOps, until)
	stop.Store(true) // a warm-up's scanner has no deadline of its own
}

// startParts gives every worker its own counters for the n parts of one
// shared window of length d that starts now.
func (r *rig) startParts(d time.Duration, n int) (t0 int64) {
	t0 = now()
	for _, c := range r.conns {
		c.w = newParts(t0, d, n)
	}
	if r.upd != nil {
		r.upd.w = newParts(t0, d, n)
		r.scn.w = newParts(t0, d, n)
	}
	return t0
}

// parts returns the workers' views of the window.
func (r *rig) parts() (ws []*parts) {
	for _, c := range r.conns {
		ws = append(ws, c.w)
	}
	if r.upd != nil {
		ws = append(ws, r.upd.w, r.scn.w)
	}
	return ws
}

// tally sums what the workers attempted and what failed so far.
func (r *rig) tally() (t tally) {
	for _, c := range r.conns {
		t.add(c.tally)
	}
	if r.upd != nil {
		t.add(r.upd.tally)
		t.add(r.scn.tally)
	}
	return t
}

// stopBackground ends the periodic compaction and checkpointing, so that
// what follows runs on a quiescent map.
func (r *rig) stopBackground() {
	if r.stopCheckpoint != nil {
		r.stopCheckpoint()
		r.stopCheckpoint = nil
	}
	if r.stopCompact != nil {
		r.stopCompact()
		r.stopCompact = nil
	}
}

// checkFinal compares a full scan of the store with the union of the
// workers' oracles: after the load has stopped they must be equal.
func (r *rig) checkFinal() error {
	all := newBitmap(r.sp.keys())
	for _, c := range r.conns {
		all.or(c.own)
	}
	if r.upd != nil {
		all.or(r.upd.own)
	}
	var sc scanCheck
	sc.start(all, 0, all.size-1)
	r.m.RangeScanFunc(bst.MinKey, bst.MaxKey, func(k int64) bool {
		sc.key(k)
		return true
	})
	if !sc.done(sc.n) {
		return fmt.Errorf("final scan of %d keys disagrees with the oracle after %d keys", r.m.Len(), sc.n)
	}
	return nil
}

// close stops everything setup started and waits for it.
func (r *rig) close() {
	for _, c := range r.conns {
		c.nc.Close()
	}
	if r.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		r.srv.Shutdown(ctx) //nolint:errcheck // the connections are closed; a late straggler is cut hard
		cancel()
	}
	r.stopBackground()
	if r.pm != nil {
		r.pm.Close() //nolint:errcheck // the directory is removed next
	}
}

// checkRecovered verifies that the map recovered from the prepared image
// holds exactly the even keys of [0, k): count and checksum.
func checkRecovered(m *bst.ShardedMap, k int64) error {
	var n int
	var sum, want uint64
	m.RangeScanFunc(bst.MinKey, bst.MaxKey, func(x int64) bool {
		n++
		sum += keyHash(x)
		return true
	})
	for x := int64(0); x < k; x += 2 {
		want += keyHash(x)
	}
	if n != int(k/2) || sum != want {
		return fmt.Errorf("recovered %d keys with checksum %#x, the prepared image holds %d with %#x", n, sum, k/2, want)
	}
	return nil
}
