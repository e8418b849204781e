package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/bst"
	"repro/internal/wire"
)

// startTestServer runs a server over a fresh 4-shard map on a loopback
// port and tears it down with the test.
func startTestServer(t *testing.T, cfg Config) (*Server, *bst.ShardedMap) {
	t.Helper()
	m := bst.NewShardedRange(0, 1<<20-1, 4)
	cfg.Addr = "127.0.0.1:0"
	cfg.Store = m
	s, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck
	})
	return s, m
}

func dialT(t *testing.T, s *Server) *wire.Client {
	t.Helper()
	c, err := wire.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestEndToEndOps runs every opcode over a real socket and checks the
// replies against the in-process store.
func TestEndToEndOps(t *testing.T) {
	s, m := startTestServer(t, Config{})
	c := dialT(t, s)

	for _, k := range []int64{5, 10, 300000, 900000} {
		ok, err := c.Insert(k)
		if err != nil || !ok {
			t.Fatalf("Insert(%d) = %v, %v", k, ok, err)
		}
	}
	if ok, err := c.Insert(10); err != nil || ok {
		t.Fatalf("duplicate Insert = %v, %v", ok, err)
	}
	if ok, err := c.Contains(300000); err != nil || !ok {
		t.Fatalf("Contains = %v, %v", ok, err)
	}
	if ok, err := c.Delete(5); err != nil || !ok {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if n, err := c.Len(); err != nil || n != int64(m.Len()) {
		t.Fatalf("Len = %d, %v (want %d)", n, err, m.Len())
	}
	if n, err := c.Count(0, 1<<20); err != nil || n != 3 {
		t.Fatalf("Count = %d, %v", n, err)
	}
	if k, ok, err := c.Min(); err != nil || !ok || k != 10 {
		t.Fatalf("Min = %d, %v, %v", k, ok, err)
	}
	if k, ok, err := c.Max(); err != nil || !ok || k != 900000 {
		t.Fatalf("Max = %d, %v, %v", k, ok, err)
	}
	if k, ok, err := c.Succ(11); err != nil || !ok || k != 300000 {
		t.Fatalf("Succ = %d, %v, %v", k, ok, err)
	}
	if k, ok, err := c.Pred(11); err != nil || !ok || k != 10 {
		t.Fatalf("Pred = %d, %v, %v", k, ok, err)
	}
	var got []int64
	total, err := c.Scan(0, 1<<20, func(k int64) bool { got = append(got, k); return true })
	if err != nil || total != 3 {
		t.Fatalf("Scan = %d keys, %v", total, err)
	}
	want := []int64{10, 300000, 900000}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Scan keys = %v, want %v", got, want)
		}
	}
	// Empty and inverted ranges.
	if total, err := c.Scan(100, 50, nil); err != nil || total != 0 {
		t.Fatalf("inverted Scan = %d, %v", total, err)
	}
	if n, err := c.Count(20, 30); err != nil || n != 0 {
		t.Fatalf("empty Count = %d, %v", n, err)
	}
}

// TestScanStreamsBatches checks a scan spanning many reply frames
// arrives whole, ordered, and duplicate-free.
func TestScanStreamsBatches(t *testing.T) {
	s, m := startTestServer(t, Config{ScanBatch: 64})
	c := dialT(t, s)
	const n = 1000
	for i := int64(0); i < n; i++ {
		m.Insert(i * 7)
	}
	prev := int64(-1)
	count := 0
	total, err := c.Scan(0, math.MaxInt64-10, func(k int64) bool {
		if k <= prev {
			t.Fatalf("scan out of order: %d after %d", k, prev)
		}
		prev = k
		count++
		return true
	})
	if err != nil || total != n || count != n {
		t.Fatalf("Scan = %d/%d keys, %v", total, count, err)
	}
}

// TestPipelinedMixedOps interleaves 1000 pipelined requests of mixed
// kinds (including scans mid-pipeline) and checks every reply arrives in
// order with the right shape.
func TestPipelinedMixedOps(t *testing.T) {
	s, _ := startTestServer(t, Config{ScanBatch: 8})
	c := dialT(t, s)
	type expect struct{ scan bool }
	var expects []expect
	for i := 0; i < 1000; i++ {
		switch i % 5 {
		case 0, 1:
			c.Send(wire.Request{Op: wire.OpInsert, A: int64(i)}) //nolint:errcheck
			expects = append(expects, expect{})
		case 2:
			c.Send(wire.Request{Op: wire.OpContains, A: int64(i - 1)}) //nolint:errcheck
			expects = append(expects, expect{})
		case 3:
			c.Send(wire.Request{Op: wire.OpScan, A: 0, B: 1000}) //nolint:errcheck
			expects = append(expects, expect{scan: true})
		case 4:
			c.Send(wire.Request{Op: wire.OpDelete, A: int64(i / 2)}) //nolint:errcheck
			expects = append(expects, expect{})
		}
	}
	for i, e := range expects {
		resp, err := c.Recv()
		if err != nil {
			t.Fatalf("reply %d: %v", i, err)
		}
		if e.scan {
			for resp.Tag == wire.TagBatch {
				if resp, err = c.Recv(); err != nil {
					t.Fatalf("scan chunk %d: %v", i, err)
				}
			}
			if resp.Tag != wire.TagDone {
				t.Fatalf("reply %d: scan ended with tag %d", i, resp.Tag)
			}
		} else if resp.Tag != wire.TagBool {
			t.Fatalf("reply %d: tag %d, want Bool", i, resp.Tag)
		}
	}
}

// TestReservedKeysRejected: keys in the sentinel range must produce a
// protocol error, not a server panic.
func TestReservedKeysRejected(t *testing.T) {
	s, _ := startTestServer(t, Config{})
	c := dialT(t, s)
	if _, err := c.Insert(math.MaxInt64); err == nil {
		t.Fatal("Insert(MaxInt64) accepted")
	}
	// The connection survives the error reply.
	if ok, err := c.Insert(1); err != nil || !ok {
		t.Fatalf("Insert after error = %v, %v", ok, err)
	}
	if _, _, err := c.Succ(math.MaxInt64 - 1); err == nil {
		t.Fatal("Succ(reserved) accepted")
	}
	// Scans clamp instead: the full-int64 scan is the whole set.
	if total, err := c.Scan(math.MinInt64, math.MaxInt64, nil); err != nil || total != 1 {
		t.Fatalf("clamped Scan = %d, %v", total, err)
	}
}

// TestMalformedFrameClosesConn: protocol garbage gets a best-effort Err
// reply and a close, and the server stays healthy for other clients.
func TestMalformedFrameClosesConn(t *testing.T) {
	s, _ := startTestServer(t, Config{})
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}); err != nil {
		t.Fatal(err)
	}
	dec := wire.NewDecoder(nc)
	resp, err := dec.Response()
	if err == nil && resp.Tag != wire.TagErr {
		t.Fatalf("malformed frame got tag %d, want Err or close", resp.Tag)
	}
	// Stream must end after the error reply.
	for err == nil {
		_, err = dec.Response()
	}
	if err != io.EOF {
		t.Fatalf("connection end: %v, want EOF", err)
	}
	// A fresh client still works.
	c := dialT(t, s)
	if ok, err := c.Insert(9); err != nil || !ok {
		t.Fatalf("server unhealthy after malformed frame: %v, %v", ok, err)
	}
}

// TestGracefulDrain: Shutdown lets pipelined-but-unserved requests
// finish, flushes their replies, and returns with no connection cut
// mid-reply.
func TestGracefulDrain(t *testing.T) {
	s, _ := startTestServer(t, Config{})
	c := dialT(t, s)
	const inflight = 500
	for i := 0; i < inflight; i++ {
		c.Send(wire.Request{Op: wire.OpInsert, A: int64(i)}) //nolint:errcheck
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// One reply proves the server accepted the connection. A connection
	// still in the accept queue when Shutdown starts is closed unread,
	// which resets it instead of draining it.
	if resp, err := c.Recv(); err != nil || resp.Tag != wire.TagBool {
		t.Fatalf("first reply: %+v, %v", resp, err)
	}
	got := 1
	// Shut down while the rest are in flight.
	var wg sync.WaitGroup
	wg.Add(1)
	var shutdownErr error
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr = s.Shutdown(ctx)
	}()
	for got < inflight {
		resp, err := c.Recv()
		if err != nil {
			// Drain only guarantees requests the server had read when the
			// deadline fired; at minimum the stream must end cleanly, not
			// mid-frame.
			if err == io.EOF {
				break
			}
			t.Fatalf("after %d replies: %v", got, err)
		}
		if resp.Tag != wire.TagBool {
			t.Fatalf("reply %d: tag %d", got, resp.Tag)
		}
		got++
	}
	wg.Wait()
	if shutdownErr != nil {
		t.Fatalf("Shutdown: %v", shutdownErr)
	}
	// New connections are refused after drain.
	if nc, err := net.DialTimeout("tcp", s.Addr().String(), time.Second); err == nil {
		nc.Close()
		t.Fatal("listener still accepting after Shutdown")
	}
}

// TestStatsAndMetricsEndpoint: the STATS opcode and the HTTP endpoint
// serve the same document shape with plausible per-op data.
func TestStatsAndMetricsEndpoint(t *testing.T) {
	s, _ := startTestServer(t, Config{MetricsAddr: "127.0.0.1:0"})
	c := dialT(t, s)
	for i := int64(0); i < 100; i++ {
		if _, err := c.Insert(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Scan(0, 1000, nil); err != nil {
		t.Fatal(err)
	}
	blob, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatalf("STATS not JSON: %v\n%s", err, blob)
	}
	if m.OpsTotal < 101 || m.ConnsActive != 1 {
		t.Fatalf("metrics = %+v", m)
	}
	ins, ok := m.Ops["INSERT"]
	if !ok || ins.Count != 100 || ins.P99 <= 0 || ins.Mean <= 0 {
		t.Fatalf("INSERT summary = %+v", ins)
	}
	if sc := m.Ops["SCAN"]; sc.Count != 1 {
		t.Fatalf("SCAN summary = %+v", sc)
	}

	url := fmt.Sprintf("http://%s/metrics", s.MetricsAddr())
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var m2 Metrics
	if err := json.Unmarshal(body, &m2); err != nil {
		t.Fatalf("/metrics not JSON: %v\n%s", err, body)
	}
	if m2.OpsTotal < m.OpsTotal {
		t.Fatalf("/metrics ops %d < STATS ops %d", m2.OpsTotal, m.OpsTotal)
	}
	hresp, err := http.Get(fmt.Sprintf("http://%s/healthz", s.MetricsAddr()))
	if err != nil || hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", hresp, err)
	}
	hresp.Body.Close()
}

// TestConcurrentClients hammers the server from several connections at
// once while one runs wide scans, checking scan well-formedness (the
// full linearizability tear check lives in experiments/serving).
func TestConcurrentClients(t *testing.T) {
	s, _ := startTestServer(t, Config{})
	const writers = 4
	var wg sync.WaitGroup
	errc := make(chan error, writers+1)
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
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
				k := int64(w*100000 + i%50000)
				if i%2 == 0 {
					_, err = c.Insert(k)
				} else {
					_, err = c.Delete(k)
				}
				if err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := wire.Dial(s.Addr().String())
		if err != nil {
			errc <- err
			return
		}
		defer c.Close()
		deadline := time.Now().Add(time.Second)
		for time.Now().Before(deadline) {
			prev := int64(-1)
			_, err := c.Scan(0, 1<<20, func(k int64) bool {
				if k <= prev {
					errc <- fmt.Errorf("scan out of order: %d after %d", k, prev)
				}
				prev = k
				return true
			})
			if err != nil {
				errc <- err
				return
			}
		}
		close(stop)
	}()
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// TestContainsRoundTripAllocs: a CONTAINS round trip over loopback — the
// client's encode and decode, the server's decode, store call and reply
// encode — allocates at most once, counted over every malloc of the
// process. The one allocation is Encoder.Bool's payload byte (ROADMAP
// item 6(b)); everything else on the path is allocation-free.
func TestContainsRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race detector")
	}
	s, m := startTestServer(t, Config{})
	c := dialT(t, s)
	m.Insert(7)
	for i := 0; i < 100; i++ { // warm the connection's buffers
		if ok, err := c.Contains(7); err != nil || !ok {
			t.Fatalf("Contains(7) = %v, %v", ok, err)
		}
	}
	const trips = 1000
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	for i := 0; i < trips; i++ {
		if ok, err := c.Contains(int64(i & 15)); err != nil || ok != (i&15 == 7) {
			t.Fatalf("Contains(%d) = %v, %v", i&15, ok, err)
		}
	}
	runtime.ReadMemStats(&ms)
	if got := float64(ms.Mallocs-before) / trips; got > 1 {
		t.Errorf("Contains round trip = %.3f allocs, want at most 1", got)
	}
}
