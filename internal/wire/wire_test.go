package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"testing"
)

// TestRequestRoundTrip encodes every opcode at its arity and decodes it
// back unchanged, including extreme key values.
func TestRequestRoundTrip(t *testing.T) {
	keys := []int64{0, 1, -1, math.MaxInt64, math.MinInt64, 42}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	var want []Request
	for _, op := range Ops() {
		for _, a := range keys {
			r := Request{Op: op}
			switch op.arity() {
			case 1:
				r.A = a
			case 2:
				r.A, r.B = a, a+100
			}
			if err := enc.Request(r); err != nil {
				t.Fatalf("encode %v: %v", r, err)
			}
			want = append(want, r)
		}
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(&buf)
	for i, w := range want {
		got, err := dec.Request()
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if !requestsEqual(got, w) {
			t.Fatalf("round trip %d: got %+v, want %+v", i, got, w)
		}
	}
	if _, err := dec.Request(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

// TestResponseRoundTrip covers every reply tag.
func TestResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	keys := []int64{math.MinInt64, -7, 0, 9, math.MaxInt64}
	if err := enc.Bool(true); err != nil {
		t.Fatal(err)
	}
	enc.Bool(false)
	enc.Int(-123456789)
	enc.Key(77, true)
	enc.Key(0, false)
	enc.Batch(keys)
	enc.Batch(nil) // skipped, not a frame
	enc.Done(int64(len(keys)))
	enc.Stats([]byte(`{"ok":true}`))
	enc.Error("boom")
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}

	dec := NewDecoder(&buf)
	expect := func(tag uint8) Response {
		t.Helper()
		r, err := dec.Response()
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if r.Tag != tag {
			t.Fatalf("tag = %d, want %d", r.Tag, tag)
		}
		return r
	}
	if r := expect(TagBool); !r.Bool {
		t.Fatal("Bool(true) decoded false")
	}
	if r := expect(TagBool); r.Bool {
		t.Fatal("Bool(false) decoded true")
	}
	if r := expect(TagInt); r.Int != -123456789 {
		t.Fatalf("Int = %d", r.Int)
	}
	if r := expect(TagKey); !r.OK || r.Int != 77 {
		t.Fatalf("Key = %+v", r)
	}
	if r := expect(TagKey); r.OK {
		t.Fatalf("Key(none) = %+v", r)
	}
	r := expect(TagBatch)
	if len(r.Keys) != len(keys) {
		t.Fatalf("batch len = %d", len(r.Keys))
	}
	for i := range keys {
		if r.Keys[i] != keys[i] {
			t.Fatalf("batch[%d] = %d, want %d", i, r.Keys[i], keys[i])
		}
	}
	if r := expect(TagDone); r.Int != int64(len(keys)) {
		t.Fatalf("Done = %d", r.Int)
	}
	if r := expect(TagStats); string(r.Blob) != `{"ok":true}` {
		t.Fatalf("Stats = %q", r.Blob)
	}
	if r := expect(TagErr); r.Msg != "boom" {
		t.Fatalf("Err = %q", r.Msg)
	}
	if _, err := dec.Response(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

// TestMBatchRoundTrip: MBATCH requests and their BoolVec replies
// round-trip, including the empty batch.
func TestMBatchRoundTrip(t *testing.T) {
	batches := [][]BatchEntry{
		nil,
		{{Op: OpInsert, Key: 1}},
		{{Op: OpInsert, Key: math.MinInt64}, {Op: OpDelete, Key: -1}, {Op: OpContains, Key: math.MaxInt64}},
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, ops := range batches {
		if err := enc.MBatch(ops); err != nil {
			t.Fatalf("encode %v: %v", ops, err)
		}
	}
	enc.Flush()
	dec := NewDecoder(&buf)
	for i, want := range batches {
		got, err := dec.Request()
		if err != nil || got.Op != OpMBatch {
			t.Fatalf("decode %d: %+v, %v", i, got, err)
		}
		if !requestsEqual(got, Request{Op: OpMBatch, Ops: want}) {
			t.Fatalf("batch %d: got %+v, want %+v", i, got.Ops, want)
		}
	}

	buf.Reset()
	vecs := [][]bool{nil, {true}, {true, false, true, false}}
	for _, v := range vecs {
		if err := enc.BoolVec(v); err != nil {
			t.Fatalf("encode %v: %v", v, err)
		}
	}
	enc.Flush()
	for i, want := range vecs {
		r, err := dec.Response()
		if err != nil || r.Tag != TagBoolVec || len(r.Bools) != len(want) {
			t.Fatalf("BoolVec %d: %+v, %v", i, r, err)
		}
		for j := range want {
			if r.Bools[j] != want[j] {
				t.Fatalf("BoolVec %d[%d] = %v", i, j, r.Bools[j])
			}
		}
	}
}

// TestMLoadRoundTrip: MLOAD chunks round-trip with their last flags.
func TestMLoadRoundTrip(t *testing.T) {
	chunks := []struct {
		keys []int64
		last bool
	}{
		{[]int64{1, 2, 3}, false},
		{nil, false},
		{[]int64{4}, true},
		{nil, true},
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for _, c := range chunks {
		if err := enc.MLoad(c.keys, c.last); err != nil {
			t.Fatal(err)
		}
	}
	enc.Flush()
	dec := NewDecoder(&buf)
	for i, c := range chunks {
		got, err := dec.Request()
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if !requestsEqual(got, Request{Op: OpMLoad, Keys: c.keys, Last: c.last}) {
			t.Fatalf("chunk %d: got %+v, want %+v", i, got, c)
		}
	}
}

// TestMBatchCaps: over-cap MBATCH frames and sub-op validation fail
// before any bytes hit the buffer (no torn frames).
func TestMBatchCaps(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	if err := enc.MBatch(make([]BatchEntry, MBatchCap+1)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("over-cap MBATCH: %v", err)
	}
	if err := enc.MBatch([]BatchEntry{{Op: OpScan, Key: 1}}); !errors.Is(err, ErrMalformed) {
		t.Fatalf("SCAN sub-op: %v", err)
	}
	if err := enc.MLoad(make([]int64, MLoadChunkCap+1), true); !errors.Is(err, ErrMalformed) {
		t.Fatalf("over-cap MLOAD: %v", err)
	}
	enc.Flush()
	if buf.Len() != 0 {
		t.Fatalf("rejected frames left %d bytes in the buffer", buf.Len())
	}

	ops := make([]BatchEntry, MBatchCap)
	for i := range ops {
		ops[i] = BatchEntry{Op: OpContains, Key: int64(i)}
	}
	if err := enc.MBatch(ops); err != nil {
		t.Fatalf("cap MBATCH: %v", err)
	}
	enc.Flush()
	got, err := NewDecoder(&buf).Request()
	if err != nil || len(got.Ops) != MBatchCap {
		t.Fatalf("cap MBATCH round trip: %d ops, %v", len(got.Ops), err)
	}
}

// TestDecodeRejectsMalformed feeds structurally invalid frames and
// expects ErrMalformed (not a panic, not a huge allocation).
func TestDecodeRejectsMalformed(t *testing.T) {
	frame := func(payload ...byte) []byte {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
		return append(hdr[:], payload...)
	}
	cases := map[string][]byte{
		"zero length":        {0, 0, 0, 0},
		"oversized length":   {0xFF, 0xFF, 0xFF, 0xFF},
		"unknown opcode":     frame(0),
		"unknown opcode 2":   frame(0x7F, 1, 2, 3),
		"short INSERT":       frame(byte(OpInsert), 1, 2, 3),
		"long MIN":           frame(byte(OpMin), 9),
		"SCAN missing bound": frame(byte(OpScan), 0, 0, 0, 0, 0, 0, 0, 1),
		"ragged MBATCH":      frame(byte(OpMBatch), byte(OpInsert), 1, 2),
		"MBATCH bad sub-op":  frame(byte(OpMBatch), byte(OpLen), 0, 0, 0, 0, 0, 0, 0, 1),
		"MLOAD no flag":      frame(byte(OpMLoad)),
		"MLOAD bad flag":     frame(byte(OpMLoad), 2),
		"ragged MLOAD":       frame(byte(OpMLoad), 1, 5, 5),
	}
	for name, in := range cases {
		if _, err := NewDecoder(bytes.NewReader(in)).Request(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
	respCases := map[string][]byte{
		"unknown tag":    frame(0xFF),
		"bad bool value": frame(TagBool, 2),
		"short int":      frame(TagInt, 1, 2),
		"empty batch":    frame(TagBatch),
		"ragged batch":   frame(TagBatch, 1, 2, 3),
		"short key":      frame(TagKey, 1),
		"bad key flag":   frame(TagKey, 2, 0, 0, 0, 0, 0, 0, 0, 0),
		"bad BoolVec":    frame(TagBoolVec, 1, 0, 2),
	}
	for name, in := range respCases {
		if _, err := NewDecoder(bytes.NewReader(in)).Response(); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}

// TestDecodeTruncation: a frame cut anywhere mid-payload is an
// ErrUnexpectedEOF-wrapped error, and a cut header is io.EOF territory,
// never a hang or panic.
func TestDecodeTruncation(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.Request(Request{Op: OpScan, A: 1, B: 2})
	enc.Flush()
	whole := buf.Bytes()
	for cut := 0; cut < len(whole); cut++ {
		dec := NewDecoder(bytes.NewReader(whole[:cut]))
		_, err := dec.Request()
		if err == nil {
			t.Fatalf("cut at %d decoded successfully", cut)
		}
	}
}

// TestBatchCap: the encoder refuses over-cap batches; cap-sized ones fit
// under MaxFrame.
func TestBatchCap(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	big := make([]int64, ScanBatchCap+1)
	if err := enc.Batch(big); !errors.Is(err, ErrMalformed) {
		t.Fatalf("over-cap batch: %v", err)
	}
	if err := enc.Batch(big[:ScanBatchCap]); err != nil {
		t.Fatalf("cap batch: %v", err)
	}
	if err := enc.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewDecoder(&buf).Response()
	if err != nil || len(r.Keys) != ScanBatchCap {
		t.Fatalf("cap batch round trip: %d keys, %v", len(r.Keys), err)
	}
}

// TestClientPipelining drives a Client against a minimal in-process
// echo-style server over a real socket: N sends first, N receives after,
// replies in order.
func TestClientPipelining(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		dec, enc := NewDecoder(conn), NewEncoder(conn)
		for {
			if dec.Buffered() == 0 {
				if enc.Flush() != nil {
					return
				}
			}
			req, err := dec.Request()
			if err != nil {
				return
			}
			// Reply Int(A) so the client can check ordering.
			if enc.Int(req.A) != nil {
				return
			}
		}
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const depth = 100
	for i := 0; i < depth; i++ {
		if err := c.Send(Request{Op: OpContains, A: int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < depth; i++ {
		resp, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if resp.Tag != TagInt || resp.Int != int64(i) {
			t.Fatalf("reply %d = %+v out of order", i, resp)
		}
	}
}

// TestReplyEncodeAllocs: encoding a point reply allocates nothing; every
// fixed-size payload is staged in the encoder's scratch array. Bool is
// left out: its one-byte payload still escapes (ROADMAP item 6(b)).
func TestReplyEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are perturbed by the race detector")
	}
	enc := NewEncoder(io.Discard)
	vec := make([]bool, 64)
	encodes := map[string]func() error{
		"Int":     func() error { return enc.Int(-7) },
		"Key":     func() error { return enc.Key(42, true) },
		"Done":    func() error { return enc.Done(1 << 40) },
		"BoolVec": func() error { return enc.BoolVec(vec) },
	}
	for name, encode := range encodes {
		if got := testing.AllocsPerRun(1000, func() {
			if err := encode(); err != nil {
				t.Fatal(err)
			}
		}); got != 0 {
			t.Errorf("%s allocs/encode = %v, want 0", name, got)
		}
	}
}
