package wire

import (
	"fmt"
	"net"
)

// Client is a connection to a bstserver speaking this package's
// protocol. It supports two styles:
//
//   - Synchronous: Insert, Delete, Contains, Scan, Count, Min, Max,
//     Succ, Pred, Len, Stats — one round trip each.
//   - Pipelined: any number of Send calls followed by matching Recv
//     calls. Replies arrive strictly in request order; a SCAN's reply is
//     a run of Batch frames closed by one Done (Response.IsScanChunk).
//
// Not safe for concurrent use; the load generator opens one Client per
// connection goroutine.
type Client struct {
	conn net.Conn
	enc  *Encoder
	dec  *Decoder
}

// Dial connects to a server at addr ("host:port").
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{conn: conn, enc: NewEncoder(conn), dec: NewDecoder(conn)}
}

// Conn exposes the underlying connection (socket-option tuning; the
// tear-check harness shrinks buffers to force server-side backpressure).
func (c *Client) Conn() net.Conn { return c.conn }

// Close closes the connection. The server treats the EOF as an orderly
// disconnect.
func (c *Client) Close() error { return c.conn.Close() }

// Send buffers one request without waiting for its reply.
func (c *Client) Send(r Request) error { return c.enc.Request(r) }

// Flush pushes buffered requests to the socket.
func (c *Client) Flush() error { return c.enc.Flush() }

// Recv reads the next reply frame, first flushing any buffered requests
// (otherwise a pipelined caller could deadlock against its own unsent
// writes). Slices in the result are valid only until the next Recv.
func (c *Client) Recv() (Response, error) {
	if c.enc.Buffered() > 0 {
		if err := c.enc.Flush(); err != nil {
			return Response{}, err
		}
	}
	return c.dec.Response()
}

// do performs one synchronous round trip.
func (c *Client) do(r Request) (Response, error) {
	if err := c.Send(r); err != nil {
		return Response{}, err
	}
	resp, err := c.Recv()
	if err != nil {
		return Response{}, err
	}
	if resp.Tag == TagErr {
		return Response{}, fmt.Errorf("wire: server error for %v: %s", r.Op, resp.Msg)
	}
	return resp, nil
}

func (c *Client) doBool(op Op, k int64) (bool, error) {
	resp, err := c.do(Request{Op: op, A: k})
	if err != nil {
		return false, err
	}
	if resp.Tag != TagBool {
		return false, fmt.Errorf("%w: %v reply tagged %d", ErrMalformed, op, resp.Tag)
	}
	return resp.Bool, nil
}

func (c *Client) doInt(r Request) (int64, error) {
	resp, err := c.do(r)
	if err != nil {
		return 0, err
	}
	if resp.Tag != TagInt {
		return 0, fmt.Errorf("%w: %v reply tagged %d", ErrMalformed, r.Op, resp.Tag)
	}
	return resp.Int, nil
}

func (c *Client) doKey(op Op, k int64) (int64, bool, error) {
	resp, err := c.do(Request{Op: op, A: k})
	if err != nil {
		return 0, false, err
	}
	if resp.Tag != TagKey {
		return 0, false, fmt.Errorf("%w: %v reply tagged %d", ErrMalformed, op, resp.Tag)
	}
	return resp.Int, resp.OK, nil
}

// Insert adds k on the server, reporting whether it was absent.
func (c *Client) Insert(k int64) (bool, error) { return c.doBool(OpInsert, k) }

// Delete removes k on the server, reporting whether it was present.
func (c *Client) Delete(k int64) (bool, error) { return c.doBool(OpDelete, k) }

// Contains reports whether k is present on the server.
func (c *Client) Contains(k int64) (bool, error) { return c.doBool(OpContains, k) }

// Count returns the number of keys in [a, b].
func (c *Client) Count(a, b int64) (int64, error) {
	return c.doInt(Request{Op: OpCount, A: a, B: b})
}

// Len returns the total number of keys.
func (c *Client) Len() (int64, error) { return c.doInt(Request{Op: OpLen}) }

// Min returns the smallest key, if any.
func (c *Client) Min() (int64, bool, error) { return c.doKey(OpMin, 0) }

// Max returns the largest key, if any.
func (c *Client) Max() (int64, bool, error) { return c.doKey(OpMax, 0) }

// Succ returns the smallest key >= k, if any.
func (c *Client) Succ(k int64) (int64, bool, error) { return c.doKey(OpSucc, k) }

// Pred returns the largest key <= k, if any.
func (c *Client) Pred(k int64) (int64, bool, error) { return c.doKey(OpPred, k) }

// Scan streams the keys in [a, b] in ascending order to visit and
// returns the server-reported total. The server serves the whole scan
// from ONE phase-clock cut, so the delivered sequence is an atomic
// snapshot of [a, b] exactly like an in-process RangeScan. There is no
// client-side cancel: when visit returns false the remaining chunks are
// still drained (cheap — the stream is already in flight), only the
// callbacks stop.
func (c *Client) Scan(a, b int64, visit func(k int64) bool) (int64, error) {
	if err := c.Send(Request{Op: OpScan, A: a, B: b}); err != nil {
		return 0, err
	}
	visiting := visit != nil
	for {
		resp, err := c.Recv()
		if err != nil {
			return 0, err
		}
		switch resp.Tag {
		case TagBatch:
			for _, k := range resp.Keys {
				if visiting && !visit(k) {
					visiting = false
				}
			}
		case TagDone:
			return resp.Int, nil
		case TagErr:
			return 0, fmt.Errorf("wire: server error for SCAN: %s", resp.Msg)
		default:
			return 0, fmt.Errorf("%w: SCAN reply tagged %d", ErrMalformed, resp.Tag)
		}
	}
}

// MBatch applies a vector of point operations (Insert/Delete/Contains
// sub-ops) in one round trip per MBatchCap chunk and returns one result
// per op, in order (Insert: was absent; Delete: was present; Contains:
// is present). Batches over MBatchCap are split transparently, all
// chunks pipelined before the first reply is read. The batch is NOT
// atomic on the server — each op is individually linearizable, applied
// in vector order. The returned slice is a copy.
func (c *Client) MBatch(ops []BatchEntry) ([]bool, error) {
	res := make([]bool, 0, len(ops))
	nchunks := 0
	for chunk := ops; ; {
		n := len(chunk)
		if n > MBatchCap {
			n = MBatchCap
		}
		if err := c.enc.MBatch(chunk[:n]); err != nil {
			return nil, err
		}
		nchunks++
		chunk = chunk[n:]
		if len(chunk) == 0 {
			break
		}
	}
	for i := 0; i < nchunks; i++ {
		resp, err := c.Recv()
		if err != nil {
			return nil, err
		}
		if resp.Tag == TagErr {
			return nil, fmt.Errorf("wire: server error for MBATCH: %s", resp.Msg)
		}
		if resp.Tag != TagBoolVec {
			return nil, fmt.Errorf("%w: MBATCH reply tagged %d", ErrMalformed, resp.Tag)
		}
		res = append(res, resp.Bools...)
	}
	if len(res) != len(ops) {
		return nil, fmt.Errorf("%w: MBATCH got %d results for %d ops", ErrMalformed, len(res), len(ops))
	}
	return res, nil
}

// BulkLoad ingests a strictly ascending key sequence through the
// server's bulk-build path (one migration-style cut instead of per-key
// Inserts) and returns how many keys were newly added. The load is
// streamed as MLOAD chunks — one logical request of unbounded size —
// and the server validates ordering and range, rejecting the WHOLE load
// without applying anything on bad input.
func (c *Client) BulkLoad(keys []int64) (int64, error) {
	for chunk := keys; ; {
		n := len(chunk)
		if n > MLoadChunkCap {
			n = MLoadChunkCap
		}
		if err := c.enc.MLoad(chunk[:n], n == len(chunk)); err != nil {
			return 0, err
		}
		chunk = chunk[n:]
		if len(chunk) == 0 {
			break
		}
	}
	resp, err := c.Recv()
	if err != nil {
		return 0, err
	}
	if resp.Tag == TagErr {
		return 0, fmt.Errorf("wire: server error for MLOAD: %s", resp.Msg)
	}
	if resp.Tag != TagInt {
		return 0, fmt.Errorf("%w: MLOAD reply tagged %d", ErrMalformed, resp.Tag)
	}
	return resp.Int, nil
}

// Stats fetches the server's metrics document (JSON; the same payload
// the HTTP /metrics endpoint serves). The returned slice is a copy.
func (c *Client) Stats() ([]byte, error) {
	resp, err := c.do(Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	if resp.Tag != TagStats {
		return nil, fmt.Errorf("%w: STATS reply tagged %d", ErrMalformed, resp.Tag)
	}
	return append([]byte(nil), resp.Blob...), nil
}
