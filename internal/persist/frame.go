// Package persist adds durability to bst.ShardedMap: wait-free
// checkpoints streamed from one shared-clock snapshot cut, a write-ahead
// log whose records are stamped with the exact phase their update
// committed at, and recovery that rebuilds the newest valid checkpoint
// image through the bulk-load path and replays exactly the WAL records
// with phase > the checkpoint cut. See DESIGN.md §12 for the protocol
// and the idempotence argument.
//
// On-disk layout under one directory:
//
//	wal-%08d.log       WAL segments, ascending; only the highest is open
//	ckpt-%016x.ckpt    checkpoint images, named by their cut phase
//	ckpt-%016x.tmp     checkpoint being written (ignored by recovery)
//
// Both file kinds are sequences of frames. A frame is
//
//	uint32 LE payload length | uint32 LE CRC-32C(payload) | payload
//
// so a torn tail — a crash mid-write — is detected by a short read or a
// CRC mismatch and recovery drops it instead of failing startup.
package persist

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	frameHeaderSize = 8
	// maxFramePayload bounds a single frame. The largest producer is an
	// MLOAD record (maxBulkKeys = 1<<22 keys, <=10 bytes each varint) so
	// 64 MiB leaves ample headroom while still rejecting garbage lengths
	// from a corrupt header immediately.
	maxFramePayload = 64 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// errTornFrame reports a frame cut short by a crash (short header, short
// payload, oversized length, or CRC mismatch). At the tail of the newest
// WAL segment or of a checkpoint temp file this is the expected crash
// residue and is dropped; anywhere else it is corruption.
var errTornFrame = errors.New("persist: torn or corrupt frame")

// appendFrame appends one frame carrying payload to dst. The CRC is
// taken over the copy in dst, not over payload: crc32.Checksum's argument
// escapes, and checksumming the copy keeps a caller's stack-allocated
// payload on the stack.
func appendFrame(dst, payload []byte) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = append(dst, 0, 0, 0, 0) // CRC, written once the payload is in dst
	dst = append(dst, payload...)
	binary.LittleEndian.PutUint32(dst[start+4:], crc32.Checksum(dst[start+frameHeaderSize:], crcTable))
	return dst
}

// readFrame reads the next frame from r. io.EOF reports a clean end
// exactly on a frame boundary; errTornFrame reports a partial or
// corrupt frame (any other error is an I/O failure).
func readFrame(r *bufio.Reader) ([]byte, error) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return nil, errTornFrame
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > maxFramePayload {
		return nil, errTornFrame
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, errTornFrame
		}
		return nil, err
	}
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, errTornFrame
	}
	return payload, nil
}

// Record kinds. A WAL frame carries one group of records — everything a
// single logical operation (point op, MBATCH, MLOAD) made durable at
// once, so a group is applied all-or-nothing by replay.
const (
	recInsert byte = 1 // effective Insert: key became present at phase
	recDelete byte = 2 // effective Delete: key became absent at phase
	recLoad   byte = 3 // BulkLoad: keys unioned in at the cut phase
)

// record is one decoded WAL entry. Point records (recInsert/recDelete)
// use Key; recLoad uses Keys (strictly ascending, as BulkLoad requires).
type record struct {
	kind  byte
	phase uint64
	key   int64
	keys  []int64
}

// pointRecordMax is the longest encoded point record.
const pointRecordMax = 1 + 2*binary.MaxVarintLen64

// appendPointRecord appends an encoded recInsert/recDelete to dst:
// kind byte, phase uvarint, key zigzag varint.
func appendPointRecord(dst []byte, kind byte, key int64, phase uint64) []byte {
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, phase)
	return binary.AppendVarint(dst, key)
}

// appendLoadRecord appends an encoded recLoad to dst: kind byte, phase
// uvarint, count uvarint, then each key as a zigzag varint.
func appendLoadRecord(dst []byte, keys []int64, phase uint64) []byte {
	dst = append(dst, recLoad)
	dst = binary.AppendUvarint(dst, phase)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = binary.AppendVarint(dst, k)
	}
	return dst
}

// decodeRecords walks the records of one WAL frame payload, calling fn
// for each. The payload passed a CRC check, so a structural decode error
// here is corruption (or an encoder bug), never a torn write.
func decodeRecords(payload []byte, fn func(record) error) error {
	for len(payload) > 0 {
		kind := payload[0]
		payload = payload[1:]
		phase, n := binary.Uvarint(payload)
		if n <= 0 {
			return fmt.Errorf("persist: record phase truncated")
		}
		payload = payload[n:]
		switch kind {
		case recInsert, recDelete:
			key, n := binary.Varint(payload)
			if n <= 0 {
				return fmt.Errorf("persist: record key truncated")
			}
			payload = payload[n:]
			if err := fn(record{kind: kind, phase: phase, key: key}); err != nil {
				return err
			}
		case recLoad:
			count, n := binary.Uvarint(payload)
			if n <= 0 {
				return fmt.Errorf("persist: load count truncated")
			}
			payload = payload[n:]
			keys := make([]int64, 0, count)
			for j := uint64(0); j < count; j++ {
				k, n := binary.Varint(payload)
				if n <= 0 {
					return fmt.Errorf("persist: load key truncated")
				}
				payload = payload[n:]
				keys = append(keys, k)
			}
			if err := fn(record{kind: recLoad, phase: phase, keys: keys}); err != nil {
				return err
			}
		default:
			return fmt.Errorf("persist: unknown record kind %d", kind)
		}
	}
	return nil
}
