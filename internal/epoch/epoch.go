// Package epoch provides the reader-registration table behind version
// reclamation in the PNB-BST (internal/core, for both set and map):
// an epoch-style registry in which every long-lived reader (a running
// range scan, a live snapshot) publishes a lower bound on the phase it
// traverses, so a pruner can compute the reclamation horizon — the
// minimum phase any active or future reader may need (DESIGN.md §6).
//
// Registration is a single CAS into a fixed, padded slot array (lock-free
// up to Slots concurrent readers) with a mutex-protected multiset as the
// overflow path (correct, not lock-free).
//
// The ordering contract that makes the horizon safe, with Go's
// sequentially consistent sync/atomic:
//
//   - a reader calls Register(bound) with bound read from the data
//     structure's phase counter, and only AFTER Register returns does it
//     re-read the counter to take its traversal phase (so phase >= bound);
//   - the pruner reads the counter FIRST and then calls Min(ceiling)
//     with that value.
//
// If Min misses a reader's slot, the reader published after the pruner's
// slot read, so the reader's phase re-read happened after the pruner's
// counter read and its phase >= ceiling >= the returned horizon. If Min
// sees the slot, the horizon is <= bound <= phase. Either way the
// horizon never overtakes an active reader.
//
// The contract is per-Table but NOT per-counter: several Tables may
// publish bounds read from one shared phase clock (core.Clock), which is
// how the sharded front end keeps horizons per-shard while all shards
// share a clock. A cross-shard reader registers on EVERY covered shard's
// Table before opening its phase on the shared clock; the ordering
// argument then applies to each (Table, clock) pair independently, so
// every shard's Min stays at or below the phase the composite read owns.
// Nothing in the Table itself changes — bound values from different
// counters must simply never mix in one Table.
package epoch

import (
	"sync"
	"sync/atomic"
)

// Slots is the size of the lock-free registration table.
const Slots = 128

// slot holds one registration: 0 = free, otherwise bound+1. Padded so
// concurrent readers on different slots do not false-share.
type slot struct {
	v atomic.Uint64
	_ [56]byte
}

// Table registers active readers' phase lower bounds. The zero value is
// ready to use.
type Table struct {
	slots [Slots]slot
	next  atomic.Uint32 // rotating start index for slot probing

	mu       sync.Mutex
	overflow map[uint64]uint64 // bound -> registration count
}

// Reader is a registration handle; release it exactly once.
type Reader struct {
	slot  *slot
	bound uint64
}

// Register publishes bound and returns the handle. See the package
// comment for the ordering the caller must respect.
func (t *Table) Register(bound uint64) Reader {
	start := t.next.Add(1)
	for i := uint32(0); i < Slots; i++ {
		s := &t.slots[(start+i)%Slots]
		if s.v.Load() == 0 && s.v.CompareAndSwap(0, bound+1) {
			return Reader{slot: s, bound: bound}
		}
	}
	t.mu.Lock()
	if t.overflow == nil {
		t.overflow = make(map[uint64]uint64)
	}
	t.overflow[bound]++
	t.mu.Unlock()
	return Reader{bound: bound}
}

// Release withdraws a registration.
func (t *Table) Release(r Reader) {
	if r.slot != nil {
		r.slot.v.Store(0)
		return
	}
	t.mu.Lock()
	if c := t.overflow[r.bound]; c <= 1 {
		delete(t.overflow, r.bound)
	} else {
		t.overflow[r.bound] = c - 1
	}
	t.mu.Unlock()
}

// Min returns the minimum of ceiling and every registered bound. The
// caller must have read ceiling from its phase counter BEFORE calling.
func (t *Table) Min(ceiling uint64) uint64 {
	h := ceiling
	for i := range t.slots {
		if v := t.slots[i].v.Load(); v != 0 && v-1 < h {
			h = v - 1
		}
	}
	t.mu.Lock()
	for bound := range t.overflow {
		if bound < h {
			h = bound
		}
	}
	t.mu.Unlock()
	return h
}
