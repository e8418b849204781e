package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/bst"
	"repro/internal/obs"
	"repro/internal/wire"
)

// gatedStore blocks every Insert until the gate opens, so a test can
// hold the server mid-request (and therefore mid-drain) deterministically.
type gatedStore struct {
	*bst.ShardedMap
	entered chan struct{} // signals a handler reached the gate
	gate    chan struct{}
}

func (g *gatedStore) Insert(k int64) bool {
	g.entered <- struct{}{}
	<-g.gate
	return g.ShardedMap.Insert(k)
}

// TestHealthzDuringDrain: once Shutdown begins, /healthz must serve 503
// — not refuse connections — for the whole drain window, and stop
// serving only after the data plane has drained.
func TestHealthzDuringDrain(t *testing.T) {
	gs := &gatedStore{
		ShardedMap: bst.NewShardedRange(0, 1<<20-1, 4),
		entered:    make(chan struct{}, 1),
		gate:       make(chan struct{}),
	}
	s, err := Start(Config{Addr: "127.0.0.1:0", MetricsAddr: "127.0.0.1:0", Store: gs})
	if err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("http://%s/healthz", s.MetricsAddr())
	resp, err := http.Get(url)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %v %v", resp, err)
	}
	resp.Body.Close()

	// Park one request inside the store so drain cannot finish.
	c := dialT(t, s)
	c.Send(wire.Request{Op: wire.OpInsert, A: 1}) //nolint:errcheck
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Don't start the drain until the handler is provably parked inside
	// the store — a request still unread when the drain deadline-wake
	// fires is (by the drain contract) allowed to go unserved.
	select {
	case <-gs.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("handler never reached the store")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var shutdownErr error
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr = s.Shutdown(ctx)
	}()

	// Wait for the drain flag, then the satellite guarantee: 503, served.
	deadline := time.Now().Add(5 * time.Second)
	for !s.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("Shutdown never set draining")
		}
		time.Sleep(time.Millisecond)
	}
	resp, err = http.Get(url)
	if err != nil {
		t.Fatalf("healthz refused during drain: %v", err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	close(gs.gate)
	wg.Wait()
	if shutdownErr != nil {
		t.Fatalf("Shutdown: %v", shutdownErr)
	}
	if resp, err := http.Get(url); err == nil {
		resp.Body.Close()
		t.Fatal("metrics listener still serving after drain completed")
	}
}

// TestMetricsDoneFold: per-op histograms of a closed connection must
// fold into the aggregate rather than vanish with the conn.
func TestMetricsDoneFold(t *testing.T) {
	s, _ := startTestServer(t, Config{})
	c := dialT(t, s)
	const n = 50
	for i := int64(0); i < n; i++ {
		if _, err := c.Insert(i); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		m := s.Metrics()
		if m.ConnsActive == 0 {
			if got := m.Ops["INSERT"].Count; got != n {
				t.Fatalf("after close, INSERT count = %d, want %d", got, n)
			}
			if m.OpsTotal < n {
				t.Fatalf("after close, OpsTotal = %d, want >= %d", m.OpsTotal, n)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("conn never folded: %+v", m)
		}
		time.Sleep(time.Millisecond)
	}
}

// promOpsAgree reports whether one exposition's bstserver_ops_total
// equals the sum of its per-op latency counts. Every served op adds one
// to both under the same lock, so they agree exactly when the scrape
// rendered them from a single fold.
func promOpsAgree(expo []byte) (total, latCounts uint64, ok bool) {
	sc := bufio.NewScanner(bytes.NewReader(expo))
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseUint(line[i+1:], 10, 64)
		if err != nil {
			continue
		}
		switch {
		case strings.HasPrefix(line, "bstserver_ops_total "):
			total = v
		case strings.HasPrefix(line, "bstserver_op_latency_seconds_count{"):
			latCounts += v
		}
	}
	return total, latCounts, total == latCounts
}

// TestConcurrentStatsScrape runs STATS, Metrics(), and the prom
// exposition concurrently with live traffic — primarily a race-detector
// test over the metrics fold and the exporter EWMA state. Each
// exposition must also report one instant: its op total and its latency
// histograms come from the same fold.
func TestConcurrentStatsScrape(t *testing.T) {
	s, _ := startTestServer(t, Config{MetricsAddr: "127.0.0.1:0"})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := wire.Dial(s.Addr().String())
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Insert(int64(w*1000000 + i%100000)); err != nil {
					errc <- err
					return
				}
				if i%100 == 0 {
					if _, err := c.Stats(); err != nil {
						errc <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop) // also on error, or the writers never stop
		deadline := time.Now().Add(500 * time.Millisecond)
		for time.Now().Before(deadline) {
			s.Metrics()
			if total, lat, ok := promOpsAgree(s.MetricsProm()); !ok {
				errc <- fmt.Errorf("one exposition reports %d ops but %d latency samples", total, lat)
				return
			}
			resp, err := http.Get(fmt.Sprintf("http://%s/metrics?format=prom", s.MetricsAddr()))
			if err != nil {
				errc <- err
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
		}
	}()
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// TestPromExposition checks the text-format rendering: family presence,
// histogram bucket monotonicity, le dedup (exactly one +Inf per op),
// and count/sum consistency with the JSON document.
func TestPromExposition(t *testing.T) {
	s, _ := startTestServer(t, Config{MetricsAddr: "127.0.0.1:0"})
	c := dialT(t, s)
	const n = 100
	for i := int64(0); i < n; i++ {
		if _, err := c.Insert(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Scan(0, 1000, nil); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics.prom", s.MetricsAddr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, family := range []string{
		"bstserver_ops_total",
		"bstserver_conns_total",
		"bstserver_op_latency_seconds_bucket",
		"bstserver_op_latency_seconds_sum",
		"bstserver_shard_load{shard=\"0\"}",
		"bstserver_shard_load_ewma{shard=\"0\"}",
		"bstserver_events_total{type=\"migration\"}",
		"bstserver_event_last_phase{type=\"checkpoint\"}",
		"bstserver_migrations_total{kind=\"split\"}",
		"bstserver_clock_phase",
		"bstserver_go_heap_alloc_bytes",
	} {
		if !strings.Contains(text, family) {
			t.Fatalf("exposition missing %q:\n%s", family, text)
		}
	}

	// INSERT histogram: strictly increasing le, counts monotone,
	// exactly one +Inf bucket, its count == _count == 100.
	var les []float64
	var counts []uint64
	infSeen := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `bstserver_op_latency_seconds_bucket{op="INSERT",le="`) {
			continue
		}
		rest := strings.TrimPrefix(line, `bstserver_op_latency_seconds_bucket{op="INSERT",le="`)
		q := strings.Index(rest, `"`)
		leStr, cntStr := rest[:q], strings.TrimSpace(rest[q+2:])
		cnt, err := strconv.ParseUint(cntStr, 10, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		if leStr == "+Inf" {
			infSeen++
			counts = append(counts, cnt)
			continue
		}
		le, err := strconv.ParseFloat(leStr, 64)
		if err != nil {
			t.Fatalf("bucket le %q: %v", leStr, err)
		}
		if len(les) > 0 && le <= les[len(les)-1] {
			t.Fatalf("le not increasing: %v then %v", les[len(les)-1], le)
		}
		les = append(les, le)
		counts = append(counts, cnt)
	}
	if infSeen != 1 {
		t.Fatalf("INSERT histogram has %d +Inf buckets, want 1", infSeen)
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			t.Fatalf("bucket counts not monotone: %v", counts)
		}
	}
	if counts[len(counts)-1] != n {
		t.Fatalf("+Inf bucket = %d, want %d", counts[len(counts)-1], n)
	}
	if !strings.Contains(text, fmt.Sprintf(`bstserver_op_latency_seconds_count{op="INSERT"} %d`, n)) {
		t.Fatalf("missing INSERT _count %d:\n%s", n, text)
	}

	// ?format=prom on /metrics serves the same exposition shape.
	resp2, err := http.Get(fmt.Sprintf("http://%s/metrics?format=prom", s.MetricsAddr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	body2, _ := io.ReadAll(resp2.Body)
	if !strings.Contains(string(body2), "bstserver_ops_total") {
		t.Fatalf("?format=prom not prom text:\n%s", body2)
	}
}

// TestEventsEndpointAndSlowOp: the /events tail serves phase-stamped
// migration events after a split, slow-op sampling records the
// decode/apply/flush breakdown with the opcode name, and filter
// parameters behave (including rejection of bad input).
func TestEventsEndpointAndSlowOp(t *testing.T) {
	defer obs.SetEnabled(obs.Enabled())
	obs.SetEnabled(true)
	start := obs.Default.Seq()

	m := bst.NewShardedRange(0, 1<<20-1, 4)
	s, err := Start(Config{Addr: "127.0.0.1:0", MetricsAddr: "127.0.0.1:0", Store: m, SlowOp: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	c := dialT(t, s)
	for i := int64(0); i < 200; i++ {
		if _, err := c.Insert(i * 64); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Split(0); err != nil {
		t.Fatal(err)
	}

	get := func(query string) (int, []obs.View) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s/events%s", s.MetricsAddr(), query))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode, nil
		}
		var doc struct {
			Enabled bool       `json:"enabled"`
			Seq     uint64     `json:"seq"`
			Events  []obs.View `json:"events"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatalf("/events%s not JSON: %v", query, err)
		}
		if !doc.Enabled {
			t.Fatal("/events reports recorder disabled")
		}
		return resp.StatusCode, doc.Events
	}

	_, migs := get(fmt.Sprintf("?type=migration&since=%d", start))
	if len(migs) == 0 {
		t.Fatal("no migration events after Split")
	}
	for _, e := range migs {
		if e.Type != "migration" || e.Kind != "split" || e.Phase == 0 {
			t.Fatalf("migration event = %+v", e)
		}
	}
	_, slows := get(fmt.Sprintf("?type=slowop&n=500&since=%d", start))
	if len(slows) == 0 {
		t.Fatal("no slowop events with SlowOp=1ns")
	}
	sawInsert := false
	for _, e := range slows {
		if e.Kind == "INSERT" {
			sawInsert = true
		}
		if e.A < 0 || e.B < 0 || e.C < 0 || e.A+e.B+e.C < 1 {
			t.Fatalf("slowop breakdown = %+v", e)
		}
	}
	if !sawInsert {
		t.Fatalf("no INSERT slowop among %d events", len(slows))
	}
	// Phase filters bracket the migration's cut.
	cut := migs[0].Phase
	if _, hits := get(fmt.Sprintf("?type=migration&min_phase=%d&max_phase=%d&since=%d", cut, cut, start)); len(hits) == 0 {
		t.Fatal("phase-bracketed filter missed the migration")
	}
	if _, none := get(fmt.Sprintf("?type=migration&min_phase=%d&since=%d", cut+1<<40, start)); len(none) != 0 {
		t.Fatalf("min_phase filter leaked %d events", len(none))
	}
	for _, bad := range []string{"?type=nope", "?n=x", "?since=-1", "?min_phase=zz"} {
		if code, _ := get(bad); code != http.StatusBadRequest {
			t.Fatalf("/events%s = %d, want 400", bad, code)
		}
	}

	// The JSON metrics document carries the same counters.
	var doc Metrics
	resp, err := http.Get(fmt.Sprintf("http://%s/metrics", s.MetricsAddr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.Events["migration"].Count == 0 || doc.Events["migration"].LastPhase == 0 {
		t.Fatalf("metrics events = %+v", doc.Events)
	}
	if doc.Clock == 0 {
		t.Fatal("metrics clock phase missing")
	}
	if len(doc.Shards) != 5 {
		t.Fatalf("shards = %d rows, want 5 after split", len(doc.Shards))
	}
}

// TestDrainEventEmitted: Shutdown records exactly one phase-stamped
// drain event with the active-connection count.
func TestDrainEventEmitted(t *testing.T) {
	defer obs.SetEnabled(obs.Enabled())
	obs.SetEnabled(true)
	start := obs.Default.Seq()

	m := bst.NewShardedRange(0, 1<<20-1, 4)
	s, err := Start(Config{Addr: "127.0.0.1:0", Store: m})
	if err != nil {
		t.Fatal(err)
	}
	c := dialT(t, s)
	if _, err := c.Insert(7); err != nil {
		t.Fatal(err)
	}
	// Open a phase so the drain event's clock stamp is nonzero (the
	// clock only advances when cuts are taken).
	if _, err := c.Scan(0, 100, nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	s.Shutdown(ctx) //nolint:errcheck // second call must not re-emit
	events := obs.Default.Events(obs.Filter{Type: obs.EventDrain, SinceSeq: start})
	if len(events) != 1 {
		t.Fatalf("drain events = %d, want 1", len(events))
	}
	if e := events[0]; e.A != 1 || e.Phase == 0 {
		t.Fatalf("drain event = %+v (want active=1, phase>0)", e)
	}
}
