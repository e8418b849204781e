package main

import (
	"bytes"
	"testing"

	"repro/internal/wire"
	"repro/internal/workload"
)

// encodedOps returns the bytes a connection's driver puts on the wire
// for its first n requests.
func encodedOps(t *testing.T, sp *spec, seed uint64, conn, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	d := &connDriver{id: conn, enc: wire.NewEncoder(&buf), src: newOpSource(sp, sp.mix, seed, conn), ring: make([]pending, sp.pipeline)}
	for i := 0; i < n; i++ {
		d.send()
		d.acked++ // nothing is in flight: this test has no server
	}
	if err := d.enc.Flush(); err != nil || d.err != nil {
		t.Fatalf("encoding: %v %v", err, d.err)
	}
	return buf.Bytes()
}

// TestSeedDeterminesOps: two drivers with one seed emit the same request
// bytes, another seed and another connection emit different ones, and a
// connection only ever touches keys it owns.
func TestSeedDeterminesOps(t *testing.T) {
	const n = 20_000
	for _, sp := range specs {
		if !sp.wire {
			continue
		}
		for c := 0; c < sp.conns; c++ {
			a, b := encodedOps(t, sp, 7, c, n), encodedOps(t, sp, 7, c, n)
			if !bytes.Equal(a, b) {
				t.Errorf("%s conn %d: the same seed gave different request streams", sp.name, c)
			}
			if bytes.Equal(a, encodedOps(t, sp, 8, c, n)) {
				t.Errorf("%s conn %d: seeds 7 and 8 gave the same request stream", sp.name, c)
			}
		}
		if sp.conns > 1 && bytes.Equal(encodedOps(t, sp, 7, 0, n), encodedOps(t, sp, 7, 1, n)) {
			t.Errorf("%s: connections 0 and 1 sent the same stream", sp.name)
		}
	}
	for _, sp := range specs {
		for w := 0; w < sp.conns; w++ {
			a, b := newOpSource(sp, sp.mix, 7, w), newOpSource(sp, sp.mix, 7, w)
			for i := 0; i < n; i++ {
				op := a.next()
				if op != b.next() {
					t.Fatalf("%s worker %d: op %d differs between two sources of one seed", sp.name, w, i)
				}
				if op.A < 0 || op.A >= sp.keys() || op.Kind != workload.OpScan && op.A%int64(sp.conns) != int64(w) {
					t.Fatalf("%s worker %d: op %d is %+v, outside the worker's keys", sp.name, w, i, op)
				}
			}
		}
	}
}

// TestOracle: the bitmap predicts replies, finds successors, and its scan
// check accepts exactly the oracle's slice.
func TestOracle(t *testing.T) {
	own := newBitmap(200)
	for _, k := range []int64{3, 64, 65, 130, 199} {
		if !expect(own, workload.OpInsert, k) || expect(own, workload.OpInsert, k) || !expect(own, workload.OpFind, k) {
			t.Fatalf("insert/find of %d mispredicted", k)
		}
	}
	if !expect(own, workload.OpDelete, 65) || expect(own, workload.OpDelete, 65) || expect(own, workload.OpFind, 65) {
		t.Fatal("delete of 65 mispredicted")
	}
	for _, tc := range [][2]int64{{0, 3}, {3, 3}, {4, 64}, {65, 130}, {131, 199}, {200, 200}, {-5, 3}} {
		if got := own.next(tc[0]); got != tc[1] {
			t.Errorf("next(%d) = %d, want %d", tc[0], got, tc[1])
		}
	}
	check := func(a, b int64, keys []int64, total int64) bool {
		var sc scanCheck
		sc.start(own, a, b)
		for _, k := range keys {
			sc.key(k)
		}
		return sc.done(total)
	}
	for _, tc := range []struct {
		a, b  int64
		keys  []int64
		total int64
		ok    bool
	}{
		{0, 199, []int64{3, 64, 130, 199}, 4, true},
		{4, 129, []int64{64}, 1, true},
		{4, 63, nil, 0, true},
		{0, 199, []int64{3, 64, 130}, 3, false},     // a key missing at the end
		{0, 199, []int64{3, 130, 199}, 3, false},    // a key missing in the middle
		{0, 199, []int64{3, 64, 65, 130}, 4, false}, // a key the oracle does not hold
		{0, 129, []int64{3, 64, 130}, 3, false},     // a key beyond the range
		{0, 199, []int64{3, 64, 130, 199}, 5, false},
	} {
		if got := check(tc.a, tc.b, tc.keys, tc.total); got != tc.ok {
			t.Errorf("scan [%d,%d] %v total %d: check says %v, want %v", tc.a, tc.b, tc.keys, tc.total, got, tc.ok)
		}
	}
}
