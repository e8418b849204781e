package server

import (
	"strings"
	"testing"

	"repro/bst"
	"repro/internal/wire"
)

// TestMBatchRoundTrip drives mixed-kind batches over a real socket and
// checks per-op results and end state against the in-process store.
func TestMBatchRoundTrip(t *testing.T) {
	s, m := startTestServer(t, Config{})
	c := dialT(t, s)

	ops := []wire.BatchEntry{
		{Op: wire.OpInsert, Key: 10},
		{Op: wire.OpInsert, Key: 10}, // duplicate in the same batch
		{Op: wire.OpContains, Key: 10},
		{Op: wire.OpInsert, Key: 500_000},
		{Op: wire.OpDelete, Key: 10},
		{Op: wire.OpContains, Key: 10}, // sees the delete (in-order)
		{Op: wire.OpDelete, Key: 777},  // never present
	}
	res, err := c.MBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, true, true, false, false}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("res[%d] = %v, want %v (full: %v)", i, res[i], want[i], res)
		}
	}
	if m.Contains(10) || !m.Contains(500_000) {
		t.Fatalf("end state wrong: Contains(10)=%v Contains(500000)=%v", m.Contains(10), m.Contains(500_000))
	}

	// Empty batch: one round trip, zero results.
	if res, err := c.MBatch(nil); err != nil || len(res) != 0 {
		t.Fatalf("empty MBATCH: %v, %v", res, err)
	}
}

// TestMBatchChunking: a batch over MBatchCap splits transparently and
// still returns one result per op, in order.
func TestMBatchChunking(t *testing.T) {
	s, m := startTestServer(t, Config{})
	c := dialT(t, s)

	n := wire.MBatchCap + 100
	ops := make([]wire.BatchEntry, n)
	for i := range ops {
		ops[i] = wire.BatchEntry{Op: wire.OpInsert, Key: int64(i)}
	}
	res, err := c.MBatch(ops)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != n {
		t.Fatalf("got %d results, want %d", len(res), n)
	}
	for i, r := range res {
		if !r {
			t.Fatalf("insert %d reported already present", i)
		}
	}
	if got := m.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
}

// TestMBatchRejectsBadKey: one out-of-range key rejects the WHOLE batch
// before anything applies.
func TestMBatchRejectsBadKey(t *testing.T) {
	s, m := startTestServer(t, Config{})
	c := dialT(t, s)

	_, err := c.MBatch([]wire.BatchEntry{
		{Op: wire.OpInsert, Key: 1},
		{Op: wire.OpInsert, Key: bst.MaxKey + 1},
	})
	if err == nil || !strings.Contains(err.Error(), "nothing applied") {
		t.Fatalf("err = %v, want whole-batch rejection", err)
	}
	if m.Len() != 0 {
		t.Fatalf("batch partially applied: Len = %d", m.Len())
	}
}

// TestMLoadRoundTrip: a multi-chunk MLOAD run lands as one bulk build,
// deduplicating against keys already present.
func TestMLoadRoundTrip(t *testing.T) {
	s, m := startTestServer(t, Config{})
	c := dialT(t, s)

	m.Insert(50_000) // already present: loads but does not count as added
	n := wire.MLoadChunkCap*2 + 17
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i * 10)
	}
	added, err := c.BulkLoad(keys)
	if err != nil {
		t.Fatal(err)
	}
	if added != int64(n-1) {
		t.Fatalf("added = %d, want %d", added, n-1)
	}
	if got := m.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Empty load: still one request/reply pair.
	if added, err := c.BulkLoad(nil); err != nil || added != 0 {
		t.Fatalf("empty load: %d, %v", added, err)
	}
}

// TestMLoadRejectsBadOrder: unsorted keys reject the whole run and apply
// nothing, and the connection keeps serving afterward.
func TestMLoadRejectsBadOrder(t *testing.T) {
	s, m := startTestServer(t, Config{})
	c := dialT(t, s)

	if _, err := c.BulkLoad([]int64{5, 4}); err == nil || !strings.Contains(err.Error(), "nothing applied") {
		t.Fatalf("err = %v, want whole-run rejection", err)
	}
	if m.Len() != 0 {
		t.Fatalf("bad load partially applied: Len = %d", m.Len())
	}
	// The run consumed its reply; subsequent requests still work.
	if ok, err := c.Insert(9); err != nil || !ok {
		t.Fatalf("Insert after rejected load: %v, %v", ok, err)
	}
}

// TestNonMLoadFrameMidRunClosesConn: interleaving another opcode inside
// an MLOAD run is a protocol error that closes the connection.
func TestNonMLoadFrameMidRunClosesConn(t *testing.T) {
	s, _ := startTestServer(t, Config{})
	c := dialT(t, s)

	if err := c.Send(wire.Request{Op: wire.OpMLoad, Keys: []int64{1}, Last: false}); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(wire.Request{Op: wire.OpLen}); err != nil {
		t.Fatal(err)
	}
	resp, err := c.Recv()
	if err != nil || resp.Tag != wire.TagErr {
		t.Fatalf("want TagErr for mid-run LEN, got %+v, %v", resp, err)
	}
	if _, err := c.Recv(); err == nil {
		t.Fatal("connection stayed open after mid-run protocol error")
	}
}
