package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/bst"
	"repro/internal/core"
	"repro/internal/epoch"
	"repro/internal/persist"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/wire"
	"repro/internal/workload"
)

// The isolation loops price each layer from outside, single-threaded, by
// timing calls into its public functions. They do not depend on the
// workload, but the benchmark's contract has every traced run print every
// per-layer metric as measured in that run, so each traced run executes
// them after its window; they take about seven seconds.

var sink uint64 // keeps the compiler from dropping a measured call's result

const isoRounds = 3 // every loop is timed this many times; the median is reported

// isolation sizes the loops: scale 1 on a real run, a small fraction in
// the smoke test.
type isolation struct {
	scale float64
	dir   string
	out   map[string]float64
}

func (iso *isolation) n(full int) int { return max(64, int(float64(full)*iso.scale)) }

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// timed runs body, which performs items operations, isoRounds times
// after one untimed pass and returns the median nanoseconds per
// operation and the allocations per operation over the timed passes.
func timed(items int, body func()) (ns, allocs float64) {
	body()
	per := make([]float64, isoRounds)
	m0 := mallocs()
	for r := range per {
		t := time.Now()
		body()
		per[r] = float64(time.Since(t)) / float64(items)
	}
	return median(per), float64(mallocs()-m0) / float64(isoRounds*items)
}

// loopReader serves the same encoded frames forever, so one Decoder can
// be timed over any number of frames without being rebuilt.
type loopReader struct {
	data []byte
	off  int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off == len(r.data) {
		r.off = 0
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

// codec times an encoder writing count frames into memory and a decoder
// reading them back; it returns the nanoseconds per frame of each side
// and the allocations per frame of both together.
func codec(count int, encode func(e *wire.Encoder, i int) error, decode func(d *wire.Decoder) error) (encNs, decNs, allocs float64, err error) {
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	encNs, encAllocs := timed(count, func() {
		buf.Reset()
		for i := 0; i < count && err == nil; i++ {
			err = encode(enc, i)
		}
		if ferr := enc.Flush(); err == nil {
			err = ferr
		}
	})
	if err != nil {
		return 0, 0, 0, err
	}
	dec := wire.NewDecoder(&loopReader{data: bytes.Clone(buf.Bytes())})
	decNs, decAllocs := timed(count, func() {
		for i := 0; i < count && err == nil; i++ {
			err = decode(dec)
		}
	})
	return encNs, decNs, encAllocs + decAllocs, err
}

func decodeRequest(d *wire.Decoder) error {
	r, err := d.Request()
	sink += uint64(r.A)
	return err
}

func decodeResponse(d *wire.Decoder) error {
	r, err := d.Response()
	sink += uint64(r.Tag)
	return err
}

func (iso *isolation) wireLayer() error {
	n := iso.n(200_000)
	src := newOpSource(specByName("wire-rtt"), specByName("wire-rtt").mix, 1, 0)
	reqs := make([]wire.Request, n)
	for i := range reqs {
		op := src.next()
		reqs[i] = wire.Request{Op: wireOps[op.Kind], A: op.A}
	}
	reqEnc, reqDec, reqAllocs, err := codec(n,
		func(e *wire.Encoder, i int) error { return e.Request(reqs[i]) }, decodeRequest)
	if err != nil {
		return err
	}
	repEnc, repDec, repAllocs, err := codec(n,
		func(e *wire.Encoder, i int) error { return e.Bool(i&1 == 0) }, decodeResponse)
	if err != nil {
		return err
	}
	iso.out["wire.encode_request_ns"] = reqEnc
	iso.out["wire.decode_request_ns"] = reqDec
	iso.out["wire.encode_reply_ns"] = repEnc
	iso.out["wire.decode_reply_ns"] = repDec
	iso.out["wire.codec_allocs_per_req"] = reqAllocs + repAllocs

	// MBATCH of 8: request and BoolVec reply, both directions, per sub-op.
	const batch = 8
	entries := make([]wire.BatchEntry, batch)
	for i := range entries {
		entries[i] = wire.BatchEntry{Op: reqs[i%n].Op, Key: reqs[i%n].A}
	}
	bools := make([]bool, batch)
	mbEnc, mbDec, _, err := codec(n/batch,
		func(e *wire.Encoder, _ int) error { return e.MBatch(entries) }, decodeRequest)
	if err != nil {
		return err
	}
	bvEnc, bvDec, _, err := codec(n/batch,
		func(e *wire.Encoder, _ int) error { return e.BoolVec(bools) }, decodeResponse)
	if err != nil {
		return err
	}
	iso.out["wire.mbatch8_ns_per_op"] = (mbEnc + mbDec + bvEnc + bvDec) / batch

	// One SCAN reply chunk of wire-pipe's width: 512 keys out and back.
	keys := evenKeys(1024)
	scEnc, scDec, _, err := codec(max(8, n/len(keys)),
		func(e *wire.Encoder, _ int) error { return e.Batch(keys) }, decodeResponse)
	iso.out["wire.scan_batch_ns_per_key"] = (scEnc + scDec) / float64(len(keys))
	return err
}

// coreKeyBits sizes the single tree: 2^16 keys, the even keys of
// [0, 2^17) — the population of one shard of the 2^20-key workloads.
const coreKeyBits = 17

func (iso *isolation) coreLayer() error {
	const span = int64(1) << coreKeyBits
	t, err := core.BuildFromSortedKeys(core.NewClock(), evenKeys(span))
	if err != nil {
		return err
	}
	rng := workload.NewRNG(1)
	n := iso.n(100_000)
	iso.out["core.find_ns"], _ = timed(n, func() {
		for i := 0; i < n; i++ {
			if t.Find(rng.Intn(span)) {
				sink++
			}
		}
	})

	// Insert then delete the same distinct odd keys, so every update takes
	// effect; one Compact pass per round prunes the versions they leave.
	m := iso.n(1 << 15)
	odd := func(i int) int64 { return 2*(int64(i)*40503%(span/2)) + 1 } // odd multiplier: a permutation
	var ins, del, compact [isoRounds]float64
	m0 := mallocs()
	for r := 0; r < isoRounds; r++ {
		t0 := time.Now()
		for i := 0; i < m; i++ {
			if !t.Insert(odd(i)) {
				return fmt.Errorf("core: insert of absent key %d failed", odd(i))
			}
		}
		t1 := time.Now()
		for i := 0; i < m; i++ {
			if !t.Delete(odd(i)) {
				return fmt.Errorf("core: delete of present key %d failed", odd(i))
			}
		}
		t2 := time.Now()
		ins[r] = float64(t1.Sub(t0)) / float64(m)
		del[r] = float64(t2.Sub(t1)) / float64(m)
	}
	iso.out["core.allocs_per_update"] = float64(mallocs()-m0) / float64(2*m*isoRounds)
	iso.out["core.insert_ns"] = median(ins[:])
	iso.out["core.delete_ns"] = median(del[:])
	for r := range compact {
		for i := 0; i < m; i++ {
			t.Insert(odd(i))
			t.Delete(odd(i))
		}
		t0 := time.Now()
		t.Compact()
		compact[r] = float64(time.Since(t0)) / 1e6
	}
	iso.out["core.compact_ms_per_pass"] = median(compact[:])

	var keys int
	scanNs, _ := timed(1, func() {
		keys = 0
		t.RangeScanFunc(core.MinKey, core.MaxKey, func(int64) bool { keys++; return true })
	})
	if keys != int(span/2) {
		return fmt.Errorf("core: full scan saw %d keys, want %d", keys, span/2)
	}
	iso.out["core.scan_ns_per_key"] = scanNs / float64(keys)
	return nil
}

func (iso *isolation) shardLayer() error {
	sp := specByName("wire-pipe")
	k := sp.keys()
	prefill := evenKeys(k)
	var s *shard.Set
	var err error
	loads := make([]float64, max(1, int(3*iso.scale)))
	for r := range loads {
		s = shard.NewRange(0, k-1, storeShards)
		t0 := time.Now()
		if _, err = s.BulkLoad(prefill); err != nil {
			return err
		}
		loads[r] = float64(time.Since(t0)) / float64(len(prefill))
	}
	iso.out["shard.bulkload_ns_per_key"] = median(loads)

	n := iso.n(50_000)
	finds := newOpSource(sp, workload.Mix{}, 1, 0)
	iso.out["shard.find_ns"], _ = timed(n, func() {
		for i := 0; i < n; i++ {
			if s.Find(finds.next().A) {
				sink++
			}
		}
	})
	// The same finds confined to shard 0, whose tree has the population
	// of the core loop's tree: what is left after core.find_ns is routing
	// and load accounting.
	rng := workload.NewRNG(1)
	oneShard, _ := timed(n, func() {
		for i := 0; i < n; i++ {
			if s.Find(rng.Intn(k / storeShards)) {
				sink++
			}
		}
	})
	iso.out["shard.route_ns"] = oneShard - iso.out["core.find_ns"]

	updates := newOpSource(sp, workload.Mix{InsertPct: 50, DeletePct: 50}, 1, 0)
	iso.out["shard.update_ns"], _ = timed(n, func() {
		for i := 0; i < n; i++ {
			op := updates.next()
			if op.Kind == workload.OpInsert {
				s.Insert(op.A)
			} else {
				s.Delete(op.A)
			}
		}
	})

	const batch = 8
	mixed := newOpSource(sp, workload.Mix{InsertPct: 25, DeletePct: 25}, 1, 0)
	ops := make([]core.BatchOp, batch)
	res := make([]bool, batch)
	kinds := [workload.NumOps]core.BatchKind{
		workload.OpInsert: core.BatchInsert, workload.OpDelete: core.BatchDelete, workload.OpFind: core.BatchContains,
	}
	perBatch, _ := timed(n/batch, func() {
		for i := 0; i < n/batch; i++ {
			for j := range ops {
				op := mixed.next()
				ops[j] = core.BatchOp{Kind: kinds[op.Kind], Key: op.A}
			}
			s.ApplyBatch(ops, res)
		}
	})
	iso.out["shard.applybatch8_ns_per_op"] = perBatch / batch

	scans := newOpSource(sp, libScanMix, 1, 0)
	count := iso.n(100)
	var keys uint64
	perScan, _ := timed(count, func() {
		keys = 0
		for i := 0; i < count; i++ {
			op := scans.next()
			s.RangeScanFunc(op.A, op.B, func(int64) bool { keys++; return true })
		}
	})
	iso.out["shard.scan_ns_per_key"] = perScan * float64(count) / float64(keys)
	return nil
}

// persistLayer prepares the durable image (timing its checkpoint),
// recovers it (timing persist.Open and checking what came back), and
// then times one writer's updates on the recovered map: the cost of a
// durable update, each one a WAL record and a wait for its fsync.
func (iso *isolation) persistLayer() (err error) {
	sp := specByName("wire-durable")
	dir := filepath.Join(iso.dir, "isolation-image")
	img, err := prepareImage(dir, sp.keyBits, int64(float64(sp.keys()/2)*iso.scale))
	if err != nil {
		return err
	}
	iso.out["persist.checkpoint_s"] = img.checkpointTook.Seconds()
	iso.out["persist.checkpoint_bytes_per_key"] = float64(img.checkpointBytes) / float64(img.keys)

	m := bst.NewShardedRange(0, sp.keys()-1, storeShards)
	t0 := time.Now()
	pm, _, err := persist.Open(persist.Config{Dir: dir}, m)
	if err != nil {
		return err
	}
	iso.out["persist.recover_s"] = time.Since(t0).Seconds()
	defer func() {
		if cerr := pm.Close(); err == nil {
			err = cerr
		}
	}()
	if err = checkRecovered(m, sp.keys()); err != nil {
		return err
	}

	// Insert and delete one absent odd key, so every call is an effective
	// update.
	n := iso.n(1000) &^ 1
	bytes0, err := dirBytes(dir, "wal-*.log")
	if err != nil {
		return err
	}
	m0 := mallocs()
	t0 = time.Now()
	for i := 0; i < n; i += 2 {
		pm.Insert(1)
		pm.Delete(1)
	}
	iso.out["persist.update_ns"] = float64(time.Since(t0)) / float64(n)
	iso.out["persist.allocs_per_update"] = float64(mallocs()-m0) / float64(n)
	bytes1, err := dirBytes(dir, "wal-*.log")
	if err != nil {
		return err
	}
	iso.out["persist.wal_bytes_per_update"] = float64(bytes1-bytes0) / float64(n)
	return nil
}

func (iso *isolation) smallLayers() {
	n := iso.n(1_000_000)
	var tab epoch.Table
	iso.out["epoch.register_release_ns"], _ = timed(n, func() {
		for i := 0; i < n; i++ {
			tab.Release(tab.Register(uint64(i)))
		}
	})
	h := stats.NewHistogram()
	iso.out["stats.record_ns"], _ = timed(n, func() {
		for i := 0; i < n; i++ {
			h.Record(int64(i) & 0xFFFFF)
		}
	})
	src := newOpSource(specByName("wire-pipe"), specByName("wire-pipe").mix, 1, 0)
	iso.out["workload.next_ns"], _ = timed(n, func() {
		for i := 0; i < n; i++ {
			sink += uint64(src.next().A)
		}
	})
}
