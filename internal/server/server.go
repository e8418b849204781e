// Package server is the network serving layer over the PNB-BST: a TCP
// server speaking the internal/wire protocol in front of a bst.ShardedMap
// (or any Store, such as the durable persist.Map). DESIGN.md §8 documents the architecture.
//
// Each accepted connection gets one goroutine running a read–handle–
// write loop over bufio-batched IO. Replies accumulate in the write
// buffer while decoded-but-unserved requests remain in the read buffer,
// and are flushed only when the connection's request pipeline drains
// (or the buffer fills) — so a client pipelining N requests costs ~2
// syscalls per batch, not per request.
//
// SCAN is served by streaming straight out of the store's
// RangeScanFunc visitor: the whole scan — however many shards and
// batches it spans — runs inside ONE phase-clock cut, so the key
// sequence a remote client receives is the same atomic snapshot an
// in-process caller gets (PR 3's linearizability guarantee survives the
// wire; experiment E15 checks this end to end). A slow client applies
// TCP backpressure to the visitor and therefore holds that cut's
// reclamation horizon open, exactly like a slow in-process scanner.
//
// Shutdown drains gracefully: the listener closes first, every
// connection finishes the request it is serving plus anything already
// buffered, flushes, and closes; connections idle in a read get their
// deadline cut short. The optional metrics listener serves the same
// per-op latency document (built on internal/stats.Histogram snapshots)
// that the STATS opcode returns in-band.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/bst"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Store is the operation surface the server fronts: point ops, ordered
// queries, the MBATCH vector path (BatchStore) and the MLOAD bulk path
// (BulkLoader). bst.ShardedMap and persist.Map satisfy it. For the
// serving layer's headline guarantee — remote SCANs observing one atomic
// cut — the store's RangeScanFunc must itself be linearizable (true for
// both, unless the map was built with bst.RelaxedScans, which E15
// measures as the relaxed baseline).
type Store interface {
	Insert(k int64) bool
	Delete(k int64) bool
	Contains(k int64) bool
	RangeScanFunc(a, b int64, visit func(k int64) bool)
	RangeCount(a, b int64) int
	Min() (int64, bool)
	Max() (int64, bool)
	Succ(k int64) (int64, bool)
	Pred(k int64) (int64, bool)
	Len() int
	BatchStore
	BulkLoader
}

var _ Store = (*bst.ShardedMap)(nil)

// Config describes one server.
type Config struct {
	// Addr is the TCP listen address, e.g. "127.0.0.1:7700" or ":7700".
	// Use port 0 to let the OS pick (tests, experiments).
	Addr string
	// Store is the data structure served. Required.
	Store Store
	// MetricsAddr, if non-empty, starts an HTTP listener serving GET
	// /metrics (the JSON stats document) and /healthz.
	MetricsAddr string
	// ScanBatch caps the keys per SCAN reply frame; 0 means
	// wire.ScanBatchCap. Small values increase framing overhead but
	// tighten streaming granularity (the tear-check harness uses 1).
	ScanBatch int
	// SockBuf, if positive, shrinks each connection's socket send and
	// receive buffers to this many bytes. Experiments use it to make
	// server-side backpressure deterministic; leave 0 in production.
	SockBuf int
	// SlowOp, if positive, flight-records every request whose
	// decode+apply+flush time meets or exceeds it (obs.EventSlowOp, with
	// the per-stage breakdown in the payload), provided the obs recorder
	// is enabled. 0 disables sampling entirely — the per-request cost of
	// the disabled path is one atomic load.
	SlowOp time.Duration
	// Logf, if set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

// Server is a running instance. Create with Start, stop with Shutdown.
type Server struct {
	cfg   Config
	ln    net.Listener
	mln   net.Listener
	start time.Time

	draining atomic.Bool
	wg       sync.WaitGroup // accept loop + per-connection handlers
	mwg      sync.WaitGroup // metrics HTTP goroutine: outlives the data-plane drain

	slowNs  int64         // Config.SlowOp in ns (0 = sampling off)
	phaseOf func() uint64 // reads the store's shared clock; nil if it has none

	mu         sync.Mutex
	conns      map[*conn]struct{}
	done       *connMetrics // folded metrics of closed connections
	connsTotal uint64

	promMu   sync.Mutex // exporter-side per-shard load EWMA state (prom.go)
	promGen  uint64
	promPrev []uint64
	promEwma []float64
}

// Start binds the listeners and begins accepting. It returns once the
// server is reachable; serving runs on background goroutines until
// Shutdown.
func Start(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: Config.Store is required")
	}
	if cfg.ScanBatch <= 0 || cfg.ScanBatch > wire.ScanBatchCap {
		cfg.ScanBatch = wire.ScanBatchCap
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("server: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{
		cfg:    cfg,
		ln:     ln,
		start:  time.Now(),
		slowNs: cfg.SlowOp.Nanoseconds(),
		conns:  make(map[*conn]struct{}),
		done:   newConnMetrics(),
	}
	// Stores built on the shared phase clock report it; drain and
	// slow-op events are stamped with the phase read at emit time.
	if pr, ok := cfg.Store.(interface{ ClockNow() (uint64, bool) }); ok {
		if _, hasClock := pr.ClockNow(); hasClock {
			s.phaseOf = func() uint64 { p, _ := pr.ClockNow(); return p }
		}
	}
	if cfg.MetricsAddr != "" {
		if err := s.startMetrics(cfg.MetricsAddr); err != nil {
			ln.Close()
			return nil, err
		}
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the data-plane listen address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// MetricsAddr returns the metrics listen address, or nil if disabled.
func (s *Server) MetricsAddr() net.Addr {
	if s.mln == nil {
		return nil
	}
	return s.mln.Addr()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		if s.cfg.SockBuf > 0 {
			if tc, ok := nc.(*net.TCPConn); ok {
				tc.SetReadBuffer(s.cfg.SockBuf)  //nolint:errcheck // tuning only
				tc.SetWriteBuffer(s.cfg.SockBuf) //nolint:errcheck
			}
		}
		c := &conn{nc: nc, metrics: newConnMetrics()}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			nc.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.connsTotal++
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

// conn is one client connection's server-side state.
type conn struct {
	nc      net.Conn
	metrics *connMetrics
	batch   []int64       // SCAN chunk scratch, reused across scans
	bops    []bst.BatchOp // MBATCH op scratch
	bres    []bool        // MBATCH result scratch
	load    []int64       // MLOAD key staging, one logical run at a time
}

// drainGrace is how long a draining connection keeps serving after its
// last completed request (renewed on progress, so a busy pipeline keeps
// draining until Shutdown's context expires), and how long the closing
// handshake waits for stragglers.
const drainGrace = 100 * time.Millisecond

// serveConn runs the connection's read–handle–write loop.
func (s *Server) serveConn(c *conn) {
	defer s.wg.Done()
	defer func() {
		c.nc.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.done.merge(c.metrics) // fold latency data into the server totals
		s.mu.Unlock()
	}()
	dec := wire.NewDecoder(c.nc)
	enc := wire.NewEncoder(c.nc)
	progress := true // served something since the last drain-deadline bump
	for {
		// Flush-on-drain: replies stay buffered while more requests are
		// already pipelined locally; before blocking on the socket,
		// everything owed must go out.
		if dec.Buffered() == 0 {
			if err := enc.Flush(); err != nil {
				return
			}
		}
		// Slow-op sampling costs one atomic load per request when the
		// recorder is off. When on, decode time is attributed only if
		// bytes were already buffered (otherwise the "decode" would be
		// idle time waiting for the client's next request).
		sample := s.slowNs > 0 && obs.Enabled()
		var decNs int64
		if sample && dec.Buffered() > 0 {
			td := time.Now()
			req, err := dec.Request()
			decNs = time.Since(td).Nanoseconds()
			if !s.dispatch(c, dec, enc, req, err, &progress, decNs, true) {
				return
			}
			continue
		}
		req, err := dec.Request()
		if !s.dispatch(c, dec, enc, req, err, &progress, 0, sample) {
			return
		}
	}
}

// dispatch finishes one loop iteration of serveConn: request-read error
// triage, then handling, latency recording, and (when sample is set)
// slow-op flight recording with the decode/apply/flush breakdown. It
// reports whether the connection should keep serving.
func (s *Server) dispatch(c *conn, dec *wire.Decoder, enc *wire.Encoder, req wire.Request, err error, progress *bool, decNs int64, sample bool) bool {
	switch {
	case err == nil:
	case err == io.EOF:
		return false // orderly disconnect between frames
	case isTimeout(err) && s.draining.Load():
		// Shutdown interrupted the read. The decoder keeps any partial
		// frame, so serving may resume: grant one grace window, renewed
		// as long as requests keep completing, then part politely.
		if *progress {
			*progress = false
			c.nc.SetReadDeadline(time.Now().Add(drainGrace)) //nolint:errcheck
			return true
		}
		s.closeDraining(c, enc)
		return false
	default:
		// Framing is length-prefixed, so a malformed frame was still
		// fully consumed or the stream is broken; either way resync is
		// unsafe. Report and close.
		if errors.Is(err, wire.ErrMalformed) {
			enc.Error(err.Error()) //nolint:errcheck
			enc.Flush()            //nolint:errcheck
		}
		s.logf("server: %s: %v", c.nc.RemoteAddr(), err)
		return false
	}
	*progress = true
	t0 := time.Now()
	if req.Op == wire.OpMLoad {
		// An MLOAD run spans frames and owns the read loop until its
		// terminating chunk; it records once, as one logical request.
		// Bulk-ingest runs are expected to be long and are not slow-op
		// sampled — they would drown the ring in by-design outliers.
		ok := s.serveMLoad(c, dec, enc, req)
		c.metrics.record(req.Op, time.Since(t0))
		return ok
	}
	s.handle(c, enc, req)
	apply := time.Since(t0)
	c.metrics.record(req.Op, apply)
	if sample {
		// Flush now if this request drained the pipeline (the loop's
		// top-of-iteration flush becomes a no-op), so the reply's write
		// cost lands on the request that triggered it.
		var flushNs int64
		if dec.Buffered() == 0 {
			tf := time.Now()
			if err := enc.Flush(); err != nil {
				return false
			}
			flushNs = time.Since(tf).Nanoseconds()
		}
		if total := decNs + apply.Nanoseconds() + flushNs; total >= s.slowNs {
			obs.Emit(obs.EventSlowOp, uint8(req.Op), -1, s.phase(), decNs, apply.Nanoseconds(), flushNs)
		}
	}
	return true
}

// phase reads the store's shared clock for event stamps (0 when the
// store has no clock).
func (s *Server) phase() uint64 {
	if s.phaseOf != nil {
		return s.phaseOf()
	}
	return 0
}

// isTimeout reports whether err is a read-deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// closeDraining ends a drained connection without losing replies: flush,
// half-close the write side (the FIN reaches the client AFTER the last
// reply), then absorb any bytes still in flight so the final Close does
// not turn into a reset that could destroy the data just flushed.
func (s *Server) closeDraining(c *conn, enc *wire.Encoder) {
	enc.Flush() //nolint:errcheck // best effort on the way out
	if tc, ok := c.nc.(*net.TCPConn); ok {
		tc.CloseWrite()                                //nolint:errcheck
		tc.SetReadDeadline(time.Now().Add(drainGrace)) //nolint:errcheck
		io.Copy(io.Discard, tc)                        //nolint:errcheck
	}
}

// validKey reports whether k may be stored (the top of the int64 space
// is reserved for the tree's sentinels; letting it through would panic
// the store).
func validKey(k int64) bool { return k >= bst.MinKey && k <= bst.MaxKey }

// clampRange narrows a scan interval to the storable key space.
func clampRange(a, b int64) (int64, int64) {
	if a < bst.MinKey {
		a = bst.MinKey
	}
	if b > bst.MaxKey {
		b = bst.MaxKey
	}
	return a, b
}

// handle serves one request, writing exactly one logical reply into enc.
// Encoder errors are sticky in the underlying bufio.Writer and surface
// at the next flush, so they are not checked per write.
func (s *Server) handle(c *conn, enc *wire.Encoder, req wire.Request) {
	st := s.cfg.Store
	switch req.Op {
	case wire.OpInsert, wire.OpDelete, wire.OpContains, wire.OpSucc, wire.OpPred:
		if !validKey(req.A) {
			enc.Error(fmt.Sprintf("key %d outside storable range [%d, %d]", req.A, int64(bst.MinKey), int64(bst.MaxKey))) //nolint:errcheck
			return
		}
	}
	switch req.Op {
	case wire.OpInsert:
		enc.Bool(st.Insert(req.A)) //nolint:errcheck
	case wire.OpDelete:
		enc.Bool(st.Delete(req.A)) //nolint:errcheck
	case wire.OpContains:
		enc.Bool(st.Contains(req.A)) //nolint:errcheck
	case wire.OpSucc:
		k, ok := st.Succ(req.A)
		enc.Key(k, ok) //nolint:errcheck
	case wire.OpPred:
		k, ok := st.Pred(req.A)
		enc.Key(k, ok) //nolint:errcheck
	case wire.OpMin:
		k, ok := st.Min()
		enc.Key(k, ok) //nolint:errcheck
	case wire.OpMax:
		k, ok := st.Max()
		enc.Key(k, ok) //nolint:errcheck
	case wire.OpLen:
		enc.Int(int64(st.Len())) //nolint:errcheck
	case wire.OpCount:
		a, b := clampRange(req.A, req.B)
		if a > b {
			enc.Int(0) //nolint:errcheck
			return
		}
		enc.Int(int64(st.RangeCount(a, b))) //nolint:errcheck
	case wire.OpScan:
		s.serveScan(c, enc, req.A, req.B)
	case wire.OpMBatch:
		s.serveMBatch(c, enc, req)
	case wire.OpStats:
		enc.Stats(s.MetricsJSON()) //nolint:errcheck
	default:
		enc.Error(fmt.Sprintf("unhandled opcode %v", req.Op)) //nolint:errcheck
	}
}

// serveScan streams [a, b] as Batch frames closed by Done. The entire
// scan happens inside one RangeScanFunc call, i.e. one phase-clock cut:
// batching, buffer flushes and socket backpressure all occur INSIDE the
// visitor, so they cannot split the cut. The phase is chosen when the
// scan starts, not when frames drain — a client that reads the stream
// slowly still observes the state as of scan start.
func (s *Server) serveScan(c *conn, enc *wire.Encoder, a, b int64) {
	a, b = clampRange(a, b)
	if a > b {
		enc.Done(0) //nolint:errcheck
		return
	}
	if c.batch == nil {
		c.batch = make([]int64, 0, s.cfg.ScanBatch)
	}
	batch := c.batch[:0]
	total := int64(0)
	var werr error
	s.cfg.Store.RangeScanFunc(a, b, func(k int64) bool {
		batch = append(batch, k)
		total++
		if len(batch) == cap(batch) {
			// A write error here means the client is gone (bufio errors
			// are sticky); abandon the rest of the traversal.
			if werr = enc.Batch(batch); werr != nil {
				return false
			}
			batch = batch[:0]
		}
		return true
	})
	if werr == nil {
		enc.Batch(batch) //nolint:errcheck // sticky; surfaces at flush
		enc.Done(total)  //nolint:errcheck
	}
	c.batch = batch[:0]
}

// Shutdown drains the server: stop accepting, let every connection
// finish its in-flight and already-buffered requests, flush, and close.
// Connections blocked reading are unblocked via a read deadline. If ctx
// expires first the stragglers are closed hard; the returned error
// reports that. Idempotent.
//
// The metrics listener stays up until the data plane has drained:
// /healthz answers 503 for the whole drain window, so a load balancer
// polling it sees "stop routing here" rather than connection-refused,
// and a last /metrics scrape can still observe the drain.
func (s *Server) Shutdown(ctx context.Context) error {
	first := s.draining.CompareAndSwap(false, true)
	s.ln.Close()
	s.mu.Lock()
	active := len(s.conns)
	for c := range s.conns {
		// Wake blocked readers now; serveConn sees draining and exits
		// after flushing. Handlers mid-request are unaffected (deadlines
		// only gate future reads).
		c.nc.SetReadDeadline(time.Now()) //nolint:errcheck
	}
	total := s.connsTotal
	s.mu.Unlock()
	if first {
		obs.Emit(obs.EventDrain, obs.KindNone, -1, s.phase(), int64(active), int64(total), 0)
	}

	finished := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(finished)
	}()
	var err error
	select {
	case <-finished:
	case <-ctx.Done():
		s.mu.Lock()
		n := len(s.conns)
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		<-finished
		err = fmt.Errorf("server: drain deadline expired with %d connections open", n)
	}
	if s.mln != nil {
		s.mln.Close()
	}
	s.mwg.Wait()
	return err
}

// connMetrics is per-connection (single-goroutine) latency tracking,
// folded into the server totals when the connection closes. The mutex
// only matters when a STATS/metrics reader snapshots a live connection;
// the owning goroutine's lock is otherwise uncontended.
type connMetrics struct {
	mu   sync.Mutex
	lats [wire.OpLimit]*stats.Histogram // indexed by Op; nil until that op is first served
	ops  uint64
}

func newConnMetrics() *connMetrics { return &connMetrics{} }

func (m *connMetrics) record(op wire.Op, d time.Duration) {
	m.mu.Lock()
	h := m.lats[op]
	if h == nil {
		// Lazy: a histogram is ~8KB of buckets; most connections use a
		// handful of opcodes, and metrics snapshots churn these structs.
		h = stats.NewHistogram()
		m.lats[op] = h
	}
	h.Record(d.Nanoseconds())
	m.ops++
	m.mu.Unlock()
}

// merge folds other into m (both locked; merge order server ← conn).
func (m *connMetrics) merge(other *connMetrics) {
	other.mu.Lock()
	defer other.mu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	for i := 1; i < len(m.lats); i++ {
		oh := other.lats[i]
		if oh == nil {
			continue
		}
		if m.lats[i] == nil {
			m.lats[i] = stats.NewHistogram()
		}
		m.lats[i].Merge(oh)
	}
	m.ops += other.ops
}
