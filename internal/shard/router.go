// Package shard partitions the int64 keyspace across P independent
// PNB-BST instances by fixed range boundaries, the first scale-out axis
// of the reproduction (DESIGN.md §5). A Router owns the boundary
// arithmetic (which shard owns a key, which shards a range scan must
// visit); Set composes P core.Tree instances behind one ordered-set
// surface.
//
// Because the partition is by key range — not by hash — each shard holds
// a contiguous, disjoint slice of the key space in ascending shard
// order. Stitching per-shard range scans back into one globally sorted
// result is therefore pure concatenation: no merge, no comparison.
//
// Point operations (Insert/Delete/Find) route to the owning shard and
// keep the underlying tree's guarantees unchanged: they are linearizable
// and non-blocking, because any two operations on the same key always
// meet in the same core.Tree. Cross-shard scans and snapshots open one
// phase on the clock all shards share and read every covered shard at
// it: one atomic cut of the whole set, linearizable as the paper's
// single-tree scan (Set.RangeScanFunc, Set.Snapshot, DESIGN.md §5.2).
package shard

import (
	"fmt"
	"sort"

	"repro/internal/core"
)

// bias maps an int64 key to its order-preserving uint64 offset: adding
// 2^63 (equivalently, flipping the top bit) sends MinKey to 0 so that
// unsigned compares and width arithmetic never overflow.
const bias = uint64(1) << 63

func offset(k int64) uint64 { return uint64(k) ^ bias }

func keyAt(off uint64) int64 { return int64(off ^ bias) }

// Router assigns every storable key (core.MinKey..core.MaxKey) to one of
// P contiguous range shards. Routers are immutable and copyable by value.
type Router struct {
	// starts[i] is the smallest key owned by shard i; shard i owns
	// [starts[i], starts[i+1]-1], the last shard up to core.MaxKey.
	starts []int64
}

// NewRouter partitions the full key space evenly across p shards.
func NewRouter(p int) Router {
	return NewRouterRange(core.MinKey, core.MaxKey, p)
}

// NewRouterRange partitions [lo, hi] evenly across p shards. Keys outside
// [lo, hi] still route — the first shard extends down to core.MinKey and
// the last up to core.MaxKey — so a range-focused router (e.g. over a
// benchmark's operative key range) remains total over the key space.
func NewRouterRange(lo, hi int64, p int) Router {
	if p < 1 {
		panic(fmt.Sprintf("shard: shard count %d < 1", p))
	}
	if lo > hi {
		panic(fmt.Sprintf("shard: empty partition range [%d, %d]", lo, hi))
	}
	if hi > core.MaxKey {
		hi = core.MaxKey
	}
	span := offset(hi) - offset(lo) + 1 // ≤ 2^64-2, never wraps
	if uint64(p) > span {
		panic(fmt.Sprintf("shard: %d shards exceed the %d keys of [%d, %d]", p, span, lo, hi))
	}
	width, rem := span/uint64(p), span%uint64(p)
	starts := make([]int64, p)
	starts[0] = core.MinKey
	for i := 1; i < p; i++ {
		cum := uint64(i) * width // first rem shards are one key wider
		if uint64(i) < rem {
			cum += uint64(i)
		} else {
			cum += rem
		}
		starts[i] = keyAt(offset(lo) + cum)
	}
	return Router{starts: starts}
}

// Shards returns the shard count P.
func (r Router) Shards() int { return len(r.starts) }

// Of returns the index of the shard owning key k.
func (r Router) Of(k int64) int {
	// Largest i with starts[i] <= k; starts[0] == MinKey so i >= 0.
	return sort.Search(len(r.starts), func(i int) bool { return r.starts[i] > k }) - 1
}

// Bounds returns the inclusive key range [lo, hi] owned by shard i.
func (r Router) Bounds(i int) (lo, hi int64) {
	lo = r.starts[i]
	if i == len(r.starts)-1 {
		return lo, core.MaxKey
	}
	return lo, r.starts[i+1] - 1
}

// Covering returns the first and last shard indexes intersecting [a, b].
// When the range is empty it returns first > last.
func (r Router) Covering(a, b int64) (first, last int) {
	if b > core.MaxKey {
		b = core.MaxKey
	}
	if a > b {
		return 1, 0
	}
	return r.Of(a), r.Of(b)
}
