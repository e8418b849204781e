package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/bst"
	"repro/internal/persist"
)

// metricDef names one metric of BENCHMARK.json; bound is the share of
// the parent's median by which an end-to-end metric may get worse.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the seven metrics every workload reports on the metric
// run (tracing off). The bounds of the five that are times or rates are
// what ten runs of the same code on the two shared cores can hold (see
// README.md); issueBound keeps the tighter ones ISSUE 14 asked for, and
// the A/A check reports which pairs resolve those.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"point_p50_us", "us", "lower", 0.25},
	{"point_p99_us", "us", "lower", 0.25},
	{"read_keys_per_s", "1/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.03},
	{"heap_bytes_per_key", "B", "lower", 0.05},
}

var issueBound = map[string]float64{
	"setup_s": 0.10, "ops_per_s": 0.08, "point_p50_us": 0.08, "point_p99_us": 0.10,
	"read_keys_per_s": 0.08, "allocs_per_op": 0.03, "heap_bytes_per_key": 0.05,
}

// perLayer lists the metrics of the traced run, named <module>.<metric>.
var perLayer = []metricDef{
	{Name: "wire.encode_request_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_request_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_reply_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_reply_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.codec_allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "wire.mbatch8_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "wire.scan_batch_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "server.store_call_ns", Unit: "ns", Better: "lower"},
	{Name: "server.rtt_residual_ns", Unit: "ns", Better: "lower"},
	{Name: "persist.update_ns", Unit: "ns", Better: "lower"},
	{Name: "persist.allocs_per_update", Unit: "count", Better: "lower"},
	{Name: "persist.wal_bytes_per_update", Unit: "B", Better: "lower"},
	{Name: "persist.ops_per_fsync", Unit: "count", Better: "higher"},
	{Name: "persist.fsyncs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "persist.checkpoint_s", Unit: "s", Better: "lower"},
	{Name: "persist.checkpoint_bytes_per_key", Unit: "B", Better: "lower"},
	{Name: "persist.recover_s", Unit: "s", Better: "lower"},
	{Name: "shard.find_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.update_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.route_ns", Unit: "ns", Better: "lower"},
	{Name: "shard.applybatch8_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "shard.scan_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "shard.bulkload_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "core.find_ns", Unit: "ns", Better: "lower"},
	{Name: "core.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "core.delete_ns", Unit: "ns", Better: "lower"},
	{Name: "core.scan_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "core.allocs_per_update", Unit: "count", Better: "lower"},
	{Name: "core.compact_ms_per_pass", Unit: "ms", Better: "lower"},
	{Name: "core.attempts_per_update", Unit: "count", Better: "lower"},
	{Name: "core.helps_per_kop", Unit: "count", Better: "lower"},
	{Name: "core.handshake_aborts_per_kop", Unit: "count", Better: "lower"},
	{Name: "core.horizon_retries_per_kop", Unit: "count", Better: "lower"},
	{Name: "core.pool_hit_ratio", Unit: "%", Better: "higher"},
	{Name: "core.version_nodes_per_key", Unit: "count", Better: "lower"},
	{Name: "epoch.register_release_ns", Unit: "ns", Better: "lower"},
	{Name: "stats.record_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.next_ns", Unit: "ns", Better: "lower"},
	{Name: "proc.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// setupRuns is how many times the metric run sets the workload up;
// setup_s is the median, and the last set-up is the one measured.
const setupRuns = 3

// runConfig is one invocation of one workload.
type runConfig struct {
	sp      *spec
	seed    uint64
	seconds time.Duration // --seconds: the metric run's window; the traced run's is half of it
	traced  bool
	dir     string  // scratch directory: WAL directories and the span file
	scale   float64 // 1 on a real run; the smoke test shrinks warm-ups and loops
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run prints.
type report struct {
	Workload       string                 `json:"workload"`
	Why            string                 `json:"why"`
	Seed           uint64                 `json:"seed"`
	Parts          int                    `json:"parts"`
	PartSeconds    float64                `json:"part_seconds"`
	Traced         bool                   `json:"traced"`
	Transport      string                 `json:"transport"`
	Env            envBlock               `json:"env"`
	AttemptedOps   uint64                 `json:"attempted_ops"`
	FailedOps      uint64                 `json:"failed_ops"`
	FirstFailure   string                 `json:"first_failure,omitempty"`
	LatencySamples uint64                 `json:"latency_samples"`
	PartOpsPerS    []float64              `json:"part_ops_per_s"`
	PartP50Us      []float64              `json:"part_point_p50_us"`
	PartP99Us      []float64              `json:"part_point_p99_us"`
	PartReadKeys   []float64              `json:"part_read_keys_per_s"`
	Metrics        map[string]metricValue `json:"metrics"`
	Detail         map[string]float64     `json:"detail"`
	SpanFile       string                 `json:"span_file,omitempty"`
}

// procSample is the process-wide counters read at both ends of the
// measured interval.
type procSample struct {
	mem   runtime.MemStats
	cpuNs int64
	tree  bst.Stats
	wal   persist.Stats
}

func (r *rig) sample() (s procSample) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpuNs = ru.Utime.Nano() + ru.Stime.Nano()
	}
	s.tree = r.m.Stats()
	if r.pm != nil {
		s.wal = r.pm.Stats()
	}
	runtime.ReadMemStats(&s.mem)
	return s
}

// runWorkload sets the workload up, drives it for one window,
// checks every output and assembles the report: the end-to-end metrics on the
// metric run, the per-layer metrics on the traced run.
func runWorkload(cfg runConfig) (rep *report, err error) {
	sp := cfg.sp
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.dir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	interval, n := cfg.seconds, runParts
	if cfg.traced {
		interval, n = cfg.seconds/2, tracedParts
	}
	rep = &report{
		Workload: sp.name, Why: sp.why, Seed: cfg.seed, Parts: n, PartSeconds: interval.Seconds() / float64(n),
		Traced: cfg.traced, Transport: "in-process calls", Env: readEnv(cfg.dir),
		Metrics: map[string]metricValue{}, Detail: map[string]float64{},
	}
	if sp.wire {
		rep.Transport = "loopback TCP"
	}

	imageDir := filepath.Join(scratch, "image")
	if sp.durable {
		if _, err := prepareImage(imageDir, sp.keyBits, int64(float64(sp.keys()/2)*cfg.scale)); err != nil {
			return nil, err
		}
	}
	var tr *tracer
	setups := setupRuns
	if cfg.traced {
		tr, setups = newTracer(), 1 // setup_s belongs to the metric run
	}
	warmup := max(uint64(float64(sp.warmup)*cfg.scale), 64)

	var r *rig
	var total tally
	setupTimes := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		if r != nil {
			total.add(r.tally())
			r.close()
			r = nil
		}
		walDir := filepath.Join(scratch, fmt.Sprintf("wal-%d", i))
		if sp.durable {
			if err := copyDir(imageDir, walDir); err != nil {
				return nil, err
			}
			// The copy's dirty pages are the benchmark's own: write them out
			// now, not under the recovery or the window that follows.
			syscall.Sync()
		}
		runtime.GC() // the previous set-up's store is garbage; do not let it tax this one
		t := time.Now()
		if r, err = setup(sp, cfg.seed, tr, walDir, warmup); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		setupTimes = append(setupTimes, time.Since(t).Seconds())
	}
	defer r.close()

	// Every run enters its window in the same collector state: just
	// collected, the warm-up's garbage gone.
	runtime.GC()
	before := r.sample()
	t0 := r.startParts(interval, n)
	r.drive(0, t0+int64(interval))
	after := r.sample()
	if tr != nil {
		tr.on.Store(false)
	}

	// The load has stopped. Check the end state, then measure what the
	// store keeps per key on a quiescent map.
	r.stopBackground()
	total.add(r.tally())
	total.attempted++
	if err := r.checkFinal(); err != nil {
		total.fail("%v", err)
	}
	rep.AttemptedOps, rep.FailedOps, rep.FirstFailure = total.attempted, total.failed, total.firstFailure

	ws := merged(r.parts()...)
	run := ws.total()
	rep.LatencySamples = run.lat.Count()
	rep.PartOpsPerS = ws.each(nil, ws.opsPerSec)
	rep.PartP50Us = ws.each(nil, p50us)
	rep.PartP99Us = ws.each(nil, p99us)
	rep.PartReadKeys = ws.each(nil, ws.keysPerSec)
	secs := interval.Seconds()
	rep.Detail["ops"] = float64(run.ops)
	rep.Detail["updates"] = float64(run.updates)
	for _, p := range []float64{90, 98, 99.5, 99.9} { // the slope on both sides of the p99
		rep.Detail[fmt.Sprintf("point_p%v_us", p)] = run.lat.Percentile(p) / 1e3
	}
	for i, s := range setupTimes {
		rep.Detail[fmt.Sprintf("setup_s.%d", i)] = s
	}
	if run.ops == 0 {
		return rep, fmt.Errorf("%s: no operation completed inside the window", sp.name)
	}

	if !cfg.traced {
		vals := map[string]float64{
			"setup_s":         median(setupTimes),
			"ops_per_s":       float64(run.ops) / secs,
			"point_p50_us":    run.lat.Percentile(50) / 1e3,
			"point_p99_us":    run.lat.Percentile(99) / 1e3,
			"read_keys_per_s": float64(run.readKeys) / secs,
			"allocs_per_op":   float64(after.mem.Mallocs-before.mem.Mallocs) / float64(run.ops),
		}
		// Nothing below reads the parts again, so the collector may take
		// them before the heap is measured.
		vals["heap_bytes_per_key"], rep.Detail["heap.live_keys"] = r.heapPerKey()
		fill(rep, endToEnd, vals)
		return rep, nil
	}

	vals, err := r.layerMetrics(cfg, scratch, tr, ws, run, before, after, rep.Detail)
	if err != nil {
		return rep, err
	}
	fill(rep, perLayer, vals)
	rep.SpanFile = filepath.Join(cfg.dir, "spans-"+sp.name+".jsonl")
	written, err := tr.writeSpans(rep.SpanFile)
	rep.Detail["trace.spans_written"] = float64(written)
	rep.Detail["trace.spans_dropped"] = float64(tr.dropped())
	return rep, err
}

// fill copies the values of defs into the report with their units; a
// value that is missing or not a number is an error of the benchmark
// itself and is reported as a failure.
func fill(rep *report, defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			rep.FailedOps++
			if rep.FirstFailure == "" {
				rep.FirstFailure = fmt.Sprintf("metric %s has no value (%v)", d.Name, v)
			}
			v = 0
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
}

// heapPerKey is heap_bytes_per_key: with the load stopped, two Compact
// passes and two collections — the second of each empties the limbo and
// the pools' victim caches the first leaves behind — then the bytes the
// heap still holds divided by the live keys: the tree, the versions the
// horizon still pins, and the serving path's buffers. The driver's own
// counters were folded into the report before and are dropped first.
func (r *rig) heapPerKey() (bytesPerKey, keys float64) {
	for _, c := range r.conns {
		c.w = nil
	}
	if r.upd != nil {
		r.upd.w, r.scn.w = nil, nil
	}
	r.m.Compact()
	r.m.Compact()
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	keys = float64(r.m.Len())
	return float64(ms.HeapAlloc) / keys, keys
}

// layerMetrics assembles the traced run's metrics: the shim, counter and
// process readings over the window, then the isolation loops.
func (r *rig) layerMetrics(cfg runConfig, scratch string, tr *tracer, ws *parts, run *partStats, before, after procSample, detail map[string]float64) (map[string]float64, error) {
	iso := &isolation{scale: cfg.scale, dir: scratch, out: map[string]float64{}}
	out := iso.out

	// Useful-work ratios of the tree over the window. The driver counted
	// the updates it completed; attempts are those plus the retries the
	// tree counted.
	d := func(a, b uint64) float64 { return float64(a - b) }
	kops := float64(run.ops) / 1000
	ta, tb := after.tree, before.tree
	out["core.attempts_per_update"] = 1 + (d(ta.RetriesInsert, tb.RetriesInsert)+d(ta.RetriesDelete, tb.RetriesDelete))/float64(run.updates)
	out["core.helps_per_kop"] = d(ta.Helps, tb.Helps) / kops
	out["core.handshake_aborts_per_kop"] = d(ta.HandshakeAborts, tb.HandshakeAborts) / kops
	out["core.horizon_retries_per_kop"] = d(ta.RetriesHorizon, tb.RetriesHorizon) / kops
	// The tree counts pool hits but not misses, so the misses are taken as
	// every heap allocation of the process: exact on lib-scan-churn, where
	// nothing but the tree allocates; on wire-* the serving path's
	// allocations are among them and the ratio reads low.
	hits := d(ta.PoolNodeHits, tb.PoolNodeHits) + d(ta.PoolInfoHits, tb.PoolInfoHits)
	out["core.pool_hit_ratio"] = 100 * hits / (hits + d(after.mem.Mallocs, before.mem.Mallocs))
	out["core.version_nodes_per_key"] = float64(r.m.VersionGraphSize()) / float64(r.m.Len())

	out["proc.cpu_us_per_op"] = float64(after.cpuNs-before.cpuNs) / 1e3 / float64(run.ops)
	out["proc.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	out["proc.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6

	// The WAL's group-commit factor over the window; a workload without a
	// persist layer appends nothing and syncs nothing.
	syncs := d(after.wal.WALSyncs, before.wal.WALSyncs)
	out["persist.ops_per_fsync"] = 0
	if syncs > 0 {
		out["persist.ops_per_fsync"] = d(after.wal.WALAppends, before.wal.WALAppends) / syncs
	}
	out["persist.fsyncs_per_s"] = syncs / (cfg.seconds / 2).Seconds()

	untraced := median(ws.each(func(i int) bool { return !tracedPart(i) }, ws.opsPerSec))
	traced := median(ws.each(tracedPart, ws.opsPerSec))
	out["trace.overhead_pct"] = 100 * (1 - traced/untraced)

	if err := iso.wireLayer(); err != nil {
		return nil, err
	}
	if err := iso.coreLayer(); err != nil {
		return nil, err
	}
	if err := iso.shardLayer(); err != nil {
		return nil, err
	}
	iso.smallLayers()
	if err := iso.persistLayer(); err != nil {
		return nil, err
	}

	// The budget of one request, priced from outside: what the client saw
	// (traced parts), what the store call took, what the codec takes, and
	// the rest — dispatch, kernel, scheduler, and on pipelined workloads
	// queueing — reported, never dropped.
	client := new(Recorder)
	for i := range ws.w {
		if tracedPart(i) {
			client.Merge(&ws.w[i].lat)
		}
	}
	clientP50 := client.Percentile(50)
	storeCall := r.shim.callLatency().Percentile(50)
	codecNs := 0.0
	if r.sp.wire {
		codecNs = out["wire.encode_request_ns"] + out["wire.decode_request_ns"] + out["wire.encode_reply_ns"] + out["wire.decode_reply_ns"]
	}
	out["server.store_call_ns"] = storeCall
	out["server.rtt_residual_ns"] = clientP50 - storeCall - codecNs
	self, joined := tr.selfTimes()
	detail["budget.client_request_p50_ns"] = clientP50
	detail["budget.codec_ns"] = codecNs
	detail["budget.client_self_p50_ns"] = self.Percentile(50)
	detail["trace.spans_joined"] = float64(joined)
	return out, nil
}
