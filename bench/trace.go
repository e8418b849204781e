package main

import (
	"bufio"
	"fmt"
	"os"
	"sync/atomic"

	"repro/bst"
	"repro/internal/server"
)

const (
	maxConns    = 2
	sampleEvery = 16      // one request in 16 leaves spans; one in-process call in 16 is timed
	spanCap     = 1 << 15 // spans kept per buffer; later ones are counted, not kept
)

// span is one timed interval at a layer boundary. The spans of one
// request share (conn, seq): replies come back in order and keys name
// the connection that owns them, so the driver and the store shim count
// the same sequence without passing an identifier through the program.
type span struct {
	seq        uint64
	start, end int64
}

type spanBuf struct {
	spans   []span
	dropped uint64
	_       [64]byte // the two writers of adjacent buffers run on different cores
}

func (b *spanBuf) add(seq uint64, start, end int64) {
	if len(b.spans) == cap(b.spans) {
		b.dropped++
		return
	}
	b.spans = append(b.spans, span{seq, start, end})
}

// tracer holds the traced run's spans in memory until the run ends.
// client.request spans are written by the driver's goroutines,
// server.store_call spans by the server's connection goroutines, each
// into its own buffer. on is flipped by the driver between the parts of
// the window: odd parts are traced and even ones are not, which prices
// the spans themselves (trace.overhead_pct) inside one run.
type tracer struct {
	on     atomic.Bool
	client [maxConns]spanBuf
	store  [maxConns]spanBuf
}

func newTracer() *tracer {
	t := new(tracer)
	for c := 0; c < maxConns; c++ {
		t.client[c].spans = make([]span, 0, spanCap)
		t.store[c].spans = make([]span, 0, spanCap)
	}
	return t
}

func tracedPart(i int) bool { return i%2 == 1 }

// follow switches tracing to match the part holding time at.
func (t *tracer) follow(ws *parts, at int64) {
	if on := tracedPart(ws.index(at)); on != t.on.Load() {
		t.on.Store(on)
	}
}

// store is what every workload's program exposes below the server: the
// server's Store plus its optional batch and bulk upgrades, all of which
// bst.ShardedMap and persist.Map provide.
type store interface {
	server.Store
	server.BatchStore
	server.BulkLoader
	ClockNow() (uint64, bool)
}

// tracedStore is the benchmark's shim between the server (or the
// in-process updater) and the store: it times each delegated request
// call from outside and leaves a server.store_call span for one call in
// sampleEvery. The other Store methods are not part of any workload and
// delegate untimed.
type tracedStore struct {
	store
	tr    *tracer
	conns int64
	per   [maxConns]struct {
		seq uint64
		lat Recorder
		_   [64]byte
	}
}

func newTracedStore(inner store, tr *tracer, conns int) *tracedStore {
	return &tracedStore{store: inner, tr: tr, conns: int64(conns)}
}

// enter counts one request call of the connection owning key k and
// reports its sequence number and, when tracing is on, its start time.
func (s *tracedStore) enter(k int64) (c int64, seq uint64, start int64) {
	c = k % s.conns
	seq = s.per[c].seq
	s.per[c].seq++
	if s.tr.on.Load() {
		start = now()
	}
	return c, seq, start
}

func (s *tracedStore) exit(c int64, seq uint64, start int64) {
	if start == 0 {
		return
	}
	end := now()
	s.per[c].lat.Record(end - start)
	if seq%sampleEvery == 0 {
		s.tr.store[c].add(seq, start, end)
	}
}

func (s *tracedStore) Insert(k int64) bool {
	c, seq, start := s.enter(k)
	r := s.store.Insert(k)
	s.exit(c, seq, start)
	return r
}

func (s *tracedStore) Delete(k int64) bool {
	c, seq, start := s.enter(k)
	r := s.store.Delete(k)
	s.exit(c, seq, start)
	return r
}

func (s *tracedStore) Contains(k int64) bool {
	c, seq, start := s.enter(k)
	r := s.store.Contains(k)
	s.exit(c, seq, start)
	return r
}

// RangeScanFunc is only called by the single connection of wire-pipe,
// which owns every key.
func (s *tracedStore) RangeScanFunc(a, b int64, visit func(k int64) bool) {
	c, seq, start := s.enter(0)
	s.store.RangeScanFunc(a, b, visit)
	s.exit(c, seq, start)
}

var (
	_ store = (*bst.ShardedMap)(nil)
	_ store = (*tracedStore)(nil)
)

// callLatency merges the per-connection recorders of timed store calls.
func (s *tracedStore) callLatency() *Recorder {
	all := new(Recorder)
	for c := range s.per {
		all.Merge(&s.per[c].lat)
	}
	return all
}

// selfTimes joins client.request spans with their server.store_call
// children and returns the recorder of client self times (span minus
// child) and how many spans found their pair.
func (t *tracer) selfTimes() (self *Recorder, joined int) {
	self = new(Recorder)
	for c := 0; c < maxConns; c++ {
		child := make(map[uint64]span, len(t.store[c].spans))
		for _, s := range t.store[c].spans {
			child[s.seq] = s
		}
		for _, s := range t.client[c].spans {
			if ch, ok := child[s.seq]; ok {
				self.Record((s.end - s.start) - (ch.end - ch.start))
				joined++
			}
		}
	}
	return self, joined
}

// writeSpans writes every kept span as one JSON object per line.
func (t *tracer) writeSpans(path string) (n int, err error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	for c := 0; c < maxConns; c++ {
		for _, s := range t.client[c].spans {
			fmt.Fprintf(w, `{"span":"client.request","conn":%d,"seq":%d,"start_ns":%d,"end_ns":%d}`+"\n", c, s.seq, s.start, s.end)
			n++
		}
		for _, s := range t.store[c].spans {
			fmt.Fprintf(w, `{"span":"server.store_call","parent":"client.request","conn":%d,"seq":%d,"start_ns":%d,"end_ns":%d}`+"\n", c, s.seq, s.start, s.end)
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}

func (t *tracer) dropped() (n uint64) {
	for c := 0; c < maxConns; c++ {
		n += t.client[c].dropped + t.store[c].dropped
	}
	return n
}
