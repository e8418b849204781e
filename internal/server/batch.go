package server

import (
	"errors"
	"fmt"
	"time"

	"repro/bst"
	"repro/internal/wire"
)

// BatchStore is the part of Store MBATCH dispatches through: one
// shard-grouped, amortized call for the whole vector.
type BatchStore interface {
	ApplyBatch(ops []bst.BatchOp, res []bool)
}

// BulkLoader is the part of Store MLOAD dispatches through: one
// migration-style cut building balanced replacement trees, instead of
// per-key Inserts.
type BulkLoader interface {
	BulkLoad(keys []int64) (added int, err error)
}

// maxBulkKeys caps one MLOAD run's total key count (the run is chunked
// on the wire but accumulated server-side before the build). 4M keys is
// 32MB of staging — far above any experiment, far below trouble.
const maxBulkKeys = 1 << 22

// serveMBatch serves one MBATCH request: every key is validated before
// ANY op applies (a bad key rejects the whole batch with Err), then the
// vector dispatches through the store's ApplyBatch, and the per-op
// results go out as one BoolVec. Batch semantics are the store's:
// per-op linearizable, in order, not atomic.
func (s *Server) serveMBatch(c *conn, enc *wire.Encoder, req wire.Request) {
	for _, op := range req.Ops {
		if !validKey(op.Key) {
			enc.Error(fmt.Sprintf("MBATCH rejected, nothing applied: key %d outside storable range [%d, %d]",
				op.Key, int64(bst.MinKey), int64(bst.MaxKey))) //nolint:errcheck
			return
		}
	}
	n := len(req.Ops)
	if cap(c.bops) < n {
		c.bops = make([]bst.BatchOp, n)
		c.bres = make([]bool, n)
	}
	bops, bres := c.bops[:n], c.bres[:n]
	for i, op := range req.Ops {
		kind := bst.BatchContains
		switch op.Op {
		case wire.OpInsert:
			kind = bst.BatchInsert
		case wire.OpDelete:
			kind = bst.BatchDelete
		}
		bops[i] = bst.BatchOp{Kind: kind, Key: op.Key}
	}
	s.cfg.Store.ApplyBatch(bops, bres)
	enc.BoolVec(bres) //nolint:errcheck // sticky; surfaces at flush
}

// serveMLoad serves one logical MLOAD run starting at req: it keeps
// reading MLOAD frames off the connection until the last-chunk flag,
// validating keys incrementally (strictly ascending across chunks,
// storable range, total under maxBulkKeys), then bulk-builds and replies
// with Int(added) — or, if any chunk was bad, drains the remaining
// chunks and rejects the WHOLE run with Err, applying nothing. It
// returns false when the connection must close (stream broken, or a
// non-MLOAD frame arrived mid-run — the reply pipeline cannot resync).
func (s *Server) serveMLoad(c *conn, dec *wire.Decoder, enc *wire.Encoder, req wire.Request) bool {
	c.load = c.load[:0]
	var loadErr error
	absorb := func(keys []int64) {
		// Copies out of keys (it aliases the decoder's scratch, which the
		// next Request call overwrites). After the first bad key the rest
		// of the run is drained but discarded.
		for _, k := range keys {
			switch {
			case loadErr != nil:
				return
			case !validKey(k):
				loadErr = fmt.Errorf("key %d outside storable range [%d, %d]", k, int64(bst.MinKey), int64(bst.MaxKey))
			case len(c.load) > 0 && k <= c.load[len(c.load)-1]:
				loadErr = fmt.Errorf("key %d after %d: keys must ascend strictly", k, c.load[len(c.load)-1])
			case len(c.load) >= maxBulkKeys:
				loadErr = fmt.Errorf("load exceeds %d keys", maxBulkKeys)
			default:
				c.load = append(c.load, k)
			}
		}
	}
	absorb(req.Keys)
	graced := false
	for last := req.Last; !last; {
		nreq, err := dec.Request()
		switch {
		case err == nil:
		case isTimeout(err) && s.draining.Load() && !graced:
			// Shutdown interrupted the run mid-stream; the decoder holds any
			// partial frame. One grace window to receive the rest.
			graced = true
			c.nc.SetReadDeadline(time.Now().Add(drainGrace)) //nolint:errcheck
			continue
		default:
			if errors.Is(err, wire.ErrMalformed) {
				enc.Error(err.Error()) //nolint:errcheck
				enc.Flush()            //nolint:errcheck
			}
			s.logf("server: %s: MLOAD run: %v", c.nc.RemoteAddr(), err)
			return false
		}
		if nreq.Op != wire.OpMLoad {
			// The run's single reply hasn't been sent; serving this request
			// would desynchronize the reply pipeline. Protocol error.
			enc.Error(fmt.Sprintf("%v frame inside an MLOAD run", nreq.Op)) //nolint:errcheck
			enc.Flush()                                                     //nolint:errcheck
			return false
		}
		absorb(nreq.Keys)
		last = nreq.Last
	}
	if loadErr != nil {
		enc.Error("MLOAD rejected, nothing applied: " + loadErr.Error()) //nolint:errcheck
	} else if added, err := s.cfg.Store.BulkLoad(c.load); err != nil {
		enc.Error("MLOAD failed: " + err.Error()) //nolint:errcheck
	} else {
		enc.Int(int64(added)) //nolint:errcheck
	}
	if cap(c.load) > 1<<16 {
		c.load = nil // don't let one huge load pin staging memory forever
	}
	return true
}
