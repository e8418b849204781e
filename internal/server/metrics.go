package server

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"

	"repro/bst"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Metrics is the server's observable state: an expvar-style JSON
// document served by the HTTP /metrics endpoint and the in-band STATS
// opcode. Per-op latencies are service times (request decoded → reply
// fully buffered/streamed), summarized from internal/stats.Histogram
// snapshots. For SCAN that window covers the whole reply stream, socket
// backpressure included — a slow client inflates the server-side SCAN
// percentiles (by design: the cut stays open exactly that long, see the
// package comment); compare point-op rows, not SCAN rows, against
// client-observed latency.
//
// Shards, Persist, Clock and Events are the introspection extension:
// per-shard gauges from the store's routing-table snapshot, durability
// watermarks, the shared clock's current phase, and the flight
// recorder's per-type counters. They appear when the underlying store
// supports them (sharded / persistent / clocked stores respectively).
type Metrics struct {
	UptimeSec   float64                  `json:"uptime_sec"`
	ConnsActive int                      `json:"conns_active"`
	ConnsTotal  uint64                   `json:"conns_total"`
	OpsTotal    uint64                   `json:"ops_total"`
	Draining    bool                     `json:"draining"`
	Ops         map[string]stats.Summary `json:"ops"`
	GC          GCMetrics                `json:"gc"`
	Clock       uint64                   `json:"clock_phase,omitempty"`
	Shards      []bst.ShardInfo          `json:"shards,omitempty"`
	Persist     *persist.Stats           `json:"persist,omitempty"`
	Events      map[string]EventMetric   `json:"events,omitempty"`
}

// EventMetric is one event type's cumulative count and the phase stamp
// of its most recent occurrence.
type EventMetric struct {
	Count     uint64 `json:"count"`
	LastPhase uint64 `json:"last_phase"`
}

// GCMetrics reports the serving process's runtime memory state, so an
// operator can see what the store's allocation behavior (and the
// post-horizon recycling that tempers it, DESIGN.md §10) costs in
// collector activity without attaching a profiler.
type GCMetrics struct {
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"` // live heap (approximate, no forced GC)
	HeapObjects    uint64 `json:"heap_objects"`
	Mallocs        uint64 `json:"mallocs"`           // cumulative allocations
	NumGC          uint32 `json:"num_gc"`            // cumulative collections
	GCPauseTotalNs uint64 `json:"gc_pause_total_ns"` // cumulative stop-the-world pause
}

// storeInfo resolves the introspection surfaces of the configured Store
// by concrete type: per-shard rows, store-level counters, migration
// totals, persist watermarks, and the shared clock phase. Unknown Store
// implementations serve the connection-level metrics only.
func (s *Server) storeInfo() (shards []bst.ShardInfo, st *bst.Stats, splits, merges uint64, ps *persist.Stats, clock uint64) {
	grab := func(m *bst.ShardedMap) {
		shards = m.ShardInfos()
		v := m.Stats()
		st = &v
		splits, merges = m.Migrations()
		clock, _ = m.ClockNow()
	}
	switch store := s.cfg.Store.(type) {
	case *bst.ShardedMap:
		grab(store)
	case *persist.Map:
		grab(store.Underlying())
		v := store.Stats()
		ps = &v
	}
	return shards, st, splits, merges, ps, clock
}

// metricsFold is one reading of the server's state: the Metrics document
// plus what the Prometheus encoder needs beyond it, the folded per-op
// histograms behind Metrics.Ops and the store-level counters. Both
// encoders render from one fold, so one scrape reports one instant.
type metricsFold struct {
	Metrics
	lats           *connMetrics
	st             *bst.Stats
	splits, merges uint64
}

// Metrics snapshots the server's counters and per-op latency summaries:
// the folded histograms of closed connections merged with every live
// connection's so-far data.
func (s *Server) Metrics() Metrics { return s.fold().Metrics }

// fold reads every connection's histograms and the store's
// introspection surfaces once.
func (s *Server) fold() metricsFold {
	agg := newConnMetrics()
	s.mu.Lock()
	active := len(s.conns)
	total := s.connsTotal
	agg.merge(s.done)
	for c := range s.conns {
		agg.merge(c.metrics)
	}
	s.mu.Unlock()

	f := metricsFold{lats: agg}
	m := &f.Metrics
	*m = Metrics{
		UptimeSec:   time.Since(s.start).Seconds(),
		ConnsActive: active,
		ConnsTotal:  total,
		OpsTotal:    agg.ops,
		Draining:    s.draining.Load(),
		Ops:         make(map[string]stats.Summary, wire.OpLimit-1),
	}
	for _, op := range wire.Ops() {
		if h := agg.lats[op]; h != nil && h.Count() > 0 {
			m.Ops[op.String()] = h.Snapshot()
		}
	}
	m.Shards, f.st, f.splits, f.merges, m.Persist, m.Clock = s.storeInfo()
	counts := obs.Default.Counts()
	m.Events = make(map[string]EventMetric, obs.NumEventTypes-1)
	for t := obs.EventType(1); int(t) < obs.NumEventTypes; t++ {
		m.Events[t.String()] = EventMetric{Count: counts[t], LastPhase: obs.Default.LastPhase(t)}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms) // cheap snapshot; does not force a collection
	m.GC = GCMetrics{
		HeapAllocBytes: ms.HeapAlloc,
		HeapObjects:    ms.HeapObjects,
		Mallocs:        ms.Mallocs,
		NumGC:          ms.NumGC,
		GCPauseTotalNs: ms.PauseTotalNs,
	}
	return f
}

// MetricsJSON renders Metrics as JSON (the STATS reply payload).
func (s *Server) MetricsJSON() []byte {
	b, err := json.Marshal(s.Metrics())
	if err != nil { // unreachable: Metrics is a plain value type
		return []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	return b
}

// startMetrics binds the HTTP metrics listener and serves the
// observability surface on a background goroutine:
//
//	/metrics          JSON stats document (?format=prom for text format)
//	/metrics.prom     Prometheus text exposition (prom.go)
//	/healthz          200 while serving, 503 once drain begins
//	/events           flight-recorder JSON tail (type/phase/seq filters)
//	/debug/pprof/*    standard profiling endpoints
//	/debug/runtime    runtime/metrics snapshot as JSON
//
// The goroutine joins s.mwg, NOT s.wg: Shutdown closes this listener
// only after the data plane drains, so /healthz reports 503 (instead of
// refusing connections) for the whole drain window.
func (s *Server) startMetrics(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: metrics listen %s: %w", addr, err)
	}
	s.mln = ln
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			w.Write(s.MetricsProm()) //nolint:errcheck
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(s.MetricsJSON()) //nolint:errcheck
	})
	mux.HandleFunc("/metrics.prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		w.Write(s.MetricsProm()) //nolint:errcheck
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprintln(w, "ok") //nolint:errcheck
	})
	mux.HandleFunc("/events", s.serveEvents)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/runtime", serveRuntimeMetrics)
	srv := &http.Server{Handler: mux}
	s.mwg.Add(1)
	go func() {
		defer s.mwg.Done()
		srv.Serve(ln) //nolint:errcheck // returns when Shutdown closes ln
	}()
	return nil
}

// serveEvents renders the flight recorder's tail as JSON. Query
// parameters: n (max events, default 100), type (event type name),
// since (only Seq > since), min_phase / max_phase (inclusive bounds).
func (s *Server) serveEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := obs.Filter{Max: 100}
	if v := q.Get("n"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, "bad n", http.StatusBadRequest)
			return
		}
		f.Max = n
	}
	if v := q.Get("type"); v != "" {
		t, ok := obs.ParseEventType(v)
		if !ok {
			http.Error(w, "unknown event type "+v, http.StatusBadRequest)
			return
		}
		f.Type = t
	}
	parseU64 := func(name string) (uint64, bool) {
		v := q.Get(name)
		if v == "" {
			return 0, true
		}
		u, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad "+name, http.StatusBadRequest)
			return 0, false
		}
		return u, true
	}
	var ok bool
	if f.SinceSeq, ok = parseU64("since"); !ok {
		return
	}
	if f.MinPhase, ok = parseU64("min_phase"); !ok {
		return
	}
	if f.MaxPhase, ok = parseU64("max_phase"); !ok {
		return
	}
	events := obs.Default.Events(f)
	views := make([]obs.View, len(events))
	for i, e := range events {
		views[i] = e.View()
		if e.Type == obs.EventSlowOp {
			// SlowOp kinds are wire opcodes; the recorder can't name them
			// (obs must not depend on wire), the server can.
			views[i].Kind = wire.Op(e.Kind).String()
		}
	}
	doc := struct {
		Enabled bool       `json:"enabled"`
		Seq     uint64     `json:"seq"`
		Events  []obs.View `json:"events"`
	}{obs.Enabled(), obs.Default.Seq(), views}
	w.Header().Set("Content-Type", "application/json")
	b, err := json.Marshal(doc)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Write(b) //nolint:errcheck
}
