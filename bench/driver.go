package main

import (
	"fmt"
	"net"
	"sync/atomic"

	"repro/bst"
	"repro/internal/wire"
	"repro/internal/workload"
)

// opSource turns one of the repo's deterministic workload streams into
// the operations of one connection: point keys are moved to the nearest
// key the connection owns (keys congruent to id modulo conns), so no two
// connections ever update the same key and each can predict its replies.
type opSource struct {
	stream    *workload.Stream
	id, conns int64
}

// streamSeed is the per-worker seed derivation the harness and loadgen
// share, so worker w of seed s draws the same stream everywhere.
func streamSeed(seed uint64, worker int) uint64 { return seed*1_000_003 + uint64(worker) }

func newOpSource(sp *spec, mix workload.Mix, seed uint64, worker int) *opSource {
	cfg := workload.StreamConfig{Mix: mix, KeyRange: sp.keys()}
	return &opSource{stream: workload.NewStream(cfg, streamSeed(seed, worker)), id: int64(worker % sp.conns), conns: int64(sp.conns)}
}

func (s *opSource) next() workload.Op {
	op := s.stream.Next()
	if op.Kind != workload.OpScan {
		op.A += s.id - op.A%s.conns
	}
	return op
}

// expect applies a point operation to the owner's oracle and returns the
// reply the store must give.
func expect(own *bitmap, kind workload.OpKind, k int64) bool {
	have := own.has(k)
	switch kind {
	case workload.OpInsert:
		own.set(k)
		return !have
	case workload.OpDelete:
		own.clear(k)
		return have
	}
	return have
}

// tally counts what a driver goroutine attempted and what failed: TagErr
// replies, transport errors, and replies that disagree with the oracle.
type tally struct {
	attempted, failed uint64
	firstFailure      string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstFailure == "" {
		t.firstFailure = fmt.Sprintf(format, args...)
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstFailure == "" {
		t.firstFailure = o.firstFailure
	}
}

// pending is one request in flight.
type pending struct {
	op     workload.Op
	sent   int64
	traced bool
}

// connDriver is the benchmark's own closed-loop client for one
// connection, built directly on the wire codec: it keeps up to
// len(ring) requests in flight, stamps each at encode and at reply, and
// checks every reply against the oracle when it arrives. Everything it
// touches inside a window is allocated before the window starts.
type connDriver struct {
	tally
	id   int
	nc   net.Conn
	enc  *wire.Encoder
	dec  *wire.Decoder
	src  *opSource
	own  *bitmap
	ring []pending
	scan scanCheck

	sent, acked uint64 // requests since connect; the difference is in flight
	err         error  // transport or protocol error: the connection is dead

	w  *parts  // nil while warming up
	tr *tracer // nil on the metric run
}

var wireOps = [workload.NumOps]wire.Op{
	workload.OpInsert: wire.OpInsert,
	workload.OpDelete: wire.OpDelete,
	workload.OpFind:   wire.OpContains,
	workload.OpScan:   wire.OpScan,
}

func (d *connDriver) inFlight() int { return int(d.sent - d.acked) }

func (d *connDriver) send() {
	p := &d.ring[d.sent%uint64(len(d.ring))]
	p.op = d.src.next()
	p.traced = d.tr != nil && d.sent%sampleEvery == 0 && d.tr.on.Load()
	p.sent = now()
	d.err = d.enc.Request(wire.Request{Op: wireOps[p.op.Kind], A: p.op.A, B: p.op.B})
	d.sent++
	d.attempted++
}

// recv reads and checks the reply to the oldest request in flight and
// returns the time it arrived.
func (d *connDriver) recv() int64 {
	p := &d.ring[d.acked%uint64(len(d.ring))]
	resp, err := d.dec.Response()
	if err != nil {
		d.err = err
		return now()
	}
	var ok bool
	var keys uint64
	if p.op.Kind == workload.OpScan {
		d.scan.start(d.own, p.op.A, p.op.B)
		for resp.Tag == wire.TagBatch {
			for _, k := range resp.Keys {
				d.scan.key(k)
			}
			if resp, err = d.dec.Response(); err != nil {
				d.err = err
				return now()
			}
		}
		ok = resp.Tag == wire.TagDone && d.scan.done(resp.Int)
		keys = uint64(d.scan.n)
	} else {
		want := expect(d.own, p.op.Kind, p.op.A)
		ok = resp.Tag == wire.TagBool && resp.Bool == want
		if p.op.Kind == workload.OpFind && want {
			keys = 1
		}
	}
	t := now()
	seq := d.acked
	d.acked++
	if !ok {
		d.fail("conn %d request %d (%v %d..%d): reply tag %#x bool=%v int=%d msg=%q disagrees with the oracle",
			d.id, seq, p.op.Kind, p.op.A, p.op.B, resp.Tag, resp.Bool, resp.Int, resp.Msg)
		return t
	}
	if d.w != nil {
		if d.tr != nil && d.id == 0 {
			d.tr.follow(d.w, t)
		}
		if s := d.w.at(t); s != nil {
			s.ops++
			s.readKeys += keys
			if p.op.Kind == workload.OpInsert || p.op.Kind == workload.OpDelete {
				s.updates++
			}
			if p.op.Kind != workload.OpScan {
				s.lat.Record(t - p.sent)
			}
		}
	}
	if p.traced {
		d.tr.client[d.id].add(seq, p.sent, t)
	}
	return t
}

// run sends maxOps more requests (warm-up), or, with maxOps zero, sends
// until the clock passes until (the window); then it drains what is in
// flight. A closed loop: a request is sent only when a reply has made
// room for it.
func (d *connDriver) run(maxOps uint64, until int64) {
	stopAt := d.sent + maxOps
	t := now()
	for d.err == nil {
		for d.err == nil && d.inFlight() < len(d.ring) {
			if maxOps > 0 && d.sent >= stopAt || maxOps == 0 && t >= until {
				break
			}
			d.send()
		}
		if d.inFlight() == 0 {
			return
		}
		if d.err = d.enc.Flush(); d.err != nil {
			break
		}
		// One blocking read, then every reply that came with it.
		for {
			t = d.recv()
			if d.err != nil || d.inFlight() == 0 || d.dec.Buffered() == 0 {
				break
			}
		}
	}
	for ; d.acked < d.sent; d.acked++ {
		d.fail("conn %d: %v", d.id, d.err)
	}
}

// pointStore is the update surface the in-process updater drives: the
// map itself on the metric run, the timing shim on the traced run.
type pointStore interface {
	Insert(k int64) bool
	Delete(k int64) bool
}

// libUpdater is goroutine 1 of lib-scan-churn: a loop of Insert and
// Delete calls on the map, every result checked against the oracle (it
// is the only writer).
type libUpdater struct {
	tally
	st  pointStore
	src *opSource
	own *bitmap
	seq uint64
	w   *parts
	tr  *tracer
}

func (u *libUpdater) run(maxOps uint64, until int64) {
	stopAt := u.seq + maxOps
	var s *partStats
	for ; maxOps == 0 || u.seq < stopAt; u.seq++ {
		timed := u.seq%sampleEvery == 0
		var t0 int64
		if timed {
			t0 = now()
			if maxOps == 0 && t0 >= until {
				return
			}
			if u.w != nil {
				s = u.w.at(t0)
				if u.tr != nil {
					u.tr.follow(u.w, t0)
				}
			}
		}
		op := u.src.next()
		var got bool
		if op.Kind == workload.OpInsert {
			got = u.st.Insert(op.A)
		} else {
			got = u.st.Delete(op.A)
		}
		u.attempted++
		if got != expect(u.own, op.Kind, op.A) {
			u.fail("update %d (%v %d) returned %v, the oracle says otherwise", u.seq, op.Kind, op.A, got)
			continue
		}
		if s != nil {
			s.ops++
			s.updates++
		}
		if timed {
			t1 := now()
			if s != nil {
				s.lat.Record(t1 - t0)
			}
			if u.tr != nil && u.tr.on.Load() {
				u.tr.client[0].add(u.seq, t0, t1)
			}
		}
	}
}

// libScanner is goroutine 0 of lib-scan-churn: a loop of range scans of
// width 4096 over the map the updater is changing. Its scans race the
// updater, so they are checked for what every atomic cut must satisfy:
// keys strictly ascending and inside the requested range.
type libScanner struct {
	tally
	m   *bst.ShardedMap
	src *opSource
	w   *parts
}

// run scans until the clock passes until, or, with until zero, until
// stop is set.
func (s *libScanner) run(until int64, stop *atomic.Bool) {
	var (
		prev, hi int64
		n        uint64
		bad      bool
	)
	visit := func(k int64) bool {
		if k <= prev || k > hi {
			bad = true
		}
		prev = k
		n++
		return true
	}
	for !stop.Load() {
		op := s.src.next()
		prev, hi, n, bad = op.A-1, op.B, 0, false
		s.m.RangeScanFunc(op.A, op.B, visit)
		s.attempted++
		t := now()
		if bad {
			s.fail("scan [%d, %d] delivered keys out of order or out of range", op.A, op.B)
		} else if s.w != nil {
			if sl := s.w.at(t); sl != nil {
				sl.readKeys += n // scans are not counted as ops: ops_per_s is the updater's
			}
		}
		if until > 0 && t >= until {
			return
		}
	}
}
