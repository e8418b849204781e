package loadgen

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"repro/bst"
	"repro/internal/server"
	"repro/internal/workload"
)

// TestRunOpenLoop drives a healthy server open-loop and checks the
// arrival/drop/completion accounting and that every completed op has a
// recorded latency.
func TestRunOpenLoop(t *testing.T) {
	const keys = 1 << 12
	srv, _ := startServer(t, keys)
	res, err := Run(Config{
		Addr:     srv.Addr().String(),
		Conns:    2,
		Duration: 300 * time.Millisecond,
		KeyRange: keys,
		Prefill:  -1,
		Mix:      workload.Mix{InsertPct: 20, DeletePct: 20, ScanPct: 5, RMWPct: 10, ScanWidth: 64},
		Seed:     11,
		Rate:     2000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TransportErrs != 0 {
		t.Fatalf("transport failures: %v", res.TransportErr)
	}
	if res.Errors != 0 {
		t.Fatalf("%d server errors", res.Errors)
	}
	if res.Offered == 0 || res.TotalOps() == 0 {
		t.Fatalf("offered=%d completed=%d", res.Offered, res.TotalOps())
	}
	if res.TotalOps()+res.Dropped > res.Offered {
		t.Fatalf("completed %d + dropped %d > offered %d", res.TotalOps(), res.Dropped, res.Offered)
	}
	if res.Ops[workload.OpRMW] == 0 {
		t.Fatal("RMW ops never completed")
	}
	points := res.TotalOps() - res.Ops[workload.OpScan]
	if res.PointLat.Count() != points {
		t.Fatalf("point latencies %d != point ops %d", res.PointLat.Count(), points)
	}
	if res.ScanLat.Count() != res.Ops[workload.OpScan] {
		t.Fatalf("scan latencies %d != scans %d", res.ScanLat.Count(), res.Ops[workload.OpScan])
	}
}

// TestRunOpenLoopFixedArrival: the deterministic arrival process offers
// close to Rate × Duration operations on a healthy server.
func TestRunOpenLoopFixedArrival(t *testing.T) {
	const keys = 1 << 10
	srv, _ := startServer(t, keys)
	res, err := Run(Config{
		Addr:     srv.Addr().String(),
		Conns:    1,
		Duration: 400 * time.Millisecond,
		KeyRange: keys,
		Prefill:  64,
		Seed:     3,
		Rate:     1000,
		Arrival:  ArrivalFixed,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(400) // 1000/s × 0.4s
	if res.Offered < want/2 || res.Offered > want*2 {
		t.Fatalf("fixed arrivals offered %d, want ≈%d", res.Offered, want)
	}
	if res.Dropped != 0 {
		t.Fatalf("%d drops on an unloaded server", res.Dropped)
	}
}

// TestOpStreamIdenticalAcrossModes locks in the determinism contract:
// the same (seed, connection) yields a byte-identical operation stream
// whether the run is closed-loop or open-loop — arrival randomness
// comes from a separate RNG stream and must not perturb op content.
func TestOpStreamIdenticalAcrossModes(t *testing.T) {
	base := Config{
		KeyRange: 1 << 12,
		Mix:      workload.Mix{InsertPct: 25, DeletePct: 20, ScanPct: 5, RMWPct: 10, ScanWidth: 50},
		ZipfSkew: 1.3,
		Seed:     77,
		Conns:    3,
	}
	closed := base
	closed.Pipeline = 16
	open := base
	open.Rate = 5000
	open.Arrival = ArrivalPoisson
	for conn := 0; conn < base.Conns; conn++ {
		a, b := connStream(closed, conn), connStream(open, conn)
		for i := 0; i < 20000; i++ {
			if opA, opB := a.Next(), b.Next(); opA != opB {
				t.Fatalf("conn %d op %d differs across modes: %v vs %v", conn, i, opA, opB)
			}
		}
	}
	// And distinct connections must not share a stream.
	a, b := connStream(base, 0), connStream(base, 1)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Next() == b.Next() {
			same++
		}
	}
	if same > 500 {
		t.Fatalf("conns 0 and 1 nearly identical: %d/1000 equal ops", same)
	}
}

// TestRunTransportFailureSurfaced: a server that accepts and instantly
// drops connections must not fail the run or silently deflate Ops — the
// failures surface in Result.TransportErrs.
func TestRunTransportFailureSurfaced(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	for _, rate := range []float64{0, 2000} { // closed loop and open loop
		res, err := Run(Config{
			Addr:     ln.Addr().String(),
			Conns:    2,
			Pipeline: 4,
			Duration: 100 * time.Millisecond,
			KeyRange: 128,
			Prefill:  0,
			Seed:     5,
			Rate:     rate,
		})
		if err != nil {
			t.Fatalf("rate=%v: dropped connections failed the whole run: %v", rate, err)
		}
		if res.TransportErrs == 0 {
			t.Fatalf("rate=%v: dead connections not counted as transport failures", rate)
		}
		if res.TransportErr == nil {
			t.Fatalf("rate=%v: TransportErrs=%d but TransportErr nil", rate, res.TransportErrs)
		}
	}
}

// stallStore gates every store operation behind an RWMutex so a test
// can freeze the server for a chosen interval — a controllable stand-in
// for GC pauses, compaction stalls, or an overloaded box.
type stallStore struct {
	m  *bst.ShardedMap
	mu sync.RWMutex
}

func (s *stallStore) Insert(k int64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m.Insert(k)
}

func (s *stallStore) Delete(k int64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m.Delete(k)
}

func (s *stallStore) Contains(k int64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m.Contains(k)
}

func (s *stallStore) RangeCount(a, b int64) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m.RangeCount(a, b)
}

func (s *stallStore) RangeScanFunc(a, b int64, visit func(k int64) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.m.RangeScanFunc(a, b, visit)
}

func (s *stallStore) Min() (int64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m.Min()
}

func (s *stallStore) Max() (int64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m.Max()
}

func (s *stallStore) Succ(k int64) (int64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m.Succ(k)
}

func (s *stallStore) Pred(k int64) (int64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m.Pred(k)
}

func (s *stallStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m.Len()
}

func (s *stallStore) ApplyBatch(ops []bst.BatchOp, res []bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.m.ApplyBatch(ops, res)
}

func (s *stallStore) BulkLoad(keys []int64) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m.BulkLoad(keys)
}

// shutdown drains a test server.
func shutdown(t *testing.T, s *server.Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	s.Shutdown(ctx) //nolint:errcheck
}

// TestCoordinatedOmission demonstrates why the open loop exists: on a
// server that periodically freezes, the closed loop's p99 stays small —
// its one in-flight request absorbs each stall while the arrival of
// every other request is politely deferred (coordinated omission). The
// open loop keeps scheduling arrivals through the stall and measures
// from intended start, so the stall lands in the percentiles. The
// asserted gap is the regression guard for E16's methodology.
func TestCoordinatedOmission(t *testing.T) {
	const (
		keys      = 1 << 10
		stall     = 200 * time.Millisecond
		period    = 500 * time.Millisecond
		duration  = 2 * time.Second
		openRate  = 1000.0
		minFactor = 5.0
	)

	run := func(rate float64) int64 {
		ss := &stallStore{m: bst.NewShardedRange(0, keys-1, 4)}
		srv, err := server.Start(server.Config{Addr: "127.0.0.1:0", Store: ss})
		if err != nil {
			t.Fatal(err)
		}
		defer shutdown(t, srv)

		stopStall := make(chan struct{})
		var stallWG sync.WaitGroup
		stallWG.Add(1)
		go func() {
			defer stallWG.Done()
			for {
				select {
				case <-stopStall:
					return
				case <-time.After(period - stall):
				}
				ss.mu.Lock()
				time.Sleep(stall)
				ss.mu.Unlock()
			}
		}()
		defer func() { close(stopStall); stallWG.Wait() }()

		res, err := Run(Config{
			Addr:     srv.Addr().String(),
			Conns:    1,
			Pipeline: 1,
			Duration: duration,
			KeyRange: keys,
			Prefill:  64,
			Mix:      workload.Mix{}, // find-only
			Seed:     13,
			Rate:     rate,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.TransportErrs != 0 {
			t.Fatalf("transport failures: %v", res.TransportErr)
		}
		if res.TotalOps() == 0 {
			t.Fatal("no ops completed")
		}
		return res.PointLat.Percentile(99)
	}

	closedP99 := run(0)
	openP99 := run(openRate)

	t.Logf("closed-loop p99 = %v, open-loop (intended-start) p99 = %v",
		time.Duration(closedP99), time.Duration(openP99))
	if float64(openP99) < minFactor*float64(closedP99) {
		t.Fatalf("open-loop p99 (%v) not ≥ %.0f× closed-loop p99 (%v): coordinated omission not demonstrated",
			time.Duration(openP99), minFactor, time.Duration(closedP99))
	}
	if openP99 < int64(stall/4) {
		t.Fatalf("open-loop p99 %v did not capture the %v stalls", time.Duration(openP99), stall)
	}
}
