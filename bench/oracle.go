package main

import "math/bits"

// bitmap is the driver's exact oracle: one bit per key of [0, K). Each
// connection (or the single in-process updater) owns a disjoint key
// class and is the only writer of its keys, and the server answers a
// connection's requests in order — so applying each operation to the
// owner's bitmap when its reply arrives predicts every reply exactly.
type bitmap struct {
	words []uint64
	size  int64
}

func newBitmap(size int64) *bitmap {
	return &bitmap{words: make([]uint64, (size+63)/64), size: size}
}

func (b *bitmap) has(k int64) bool { return b.words[k>>6]&(1<<uint(k&63)) != 0 }
func (b *bitmap) set(k int64)      { b.words[k>>6] |= 1 << uint(k&63) }
func (b *bitmap) clear(k int64)    { b.words[k>>6] &^= 1 << uint(k&63) }

// next returns the smallest set key >= k, or size when there is none.
func (b *bitmap) next(k int64) int64 {
	if k >= b.size {
		return b.size
	}
	if k < 0 {
		k = 0
	}
	i := k >> 6
	w := b.words[i] &^ (1<<uint(k&63) - 1)
	for w == 0 {
		i++
		if i == int64(len(b.words)) {
			return b.size
		}
		w = b.words[i]
	}
	return i<<6 + int64(bits.TrailingZeros64(w))
}

// or folds other into b (the union of the connections' disjoint oracles).
func (b *bitmap) or(other *bitmap) {
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// keyHash scrambles a key so that a checksum of sums catches swapped or
// shifted keys (splitmix64 finalizer).
func keyHash(k int64) uint64 {
	z := uint64(k) + 0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// scanCheck verifies a stream of scan keys against the oracle's slice of
// [a, b]: feed every delivered key to key, then call done.
type scanCheck struct {
	own  *bitmap
	want int64 // next key the oracle holds at or after the cursor
	b    int64
	n    int64
	bad  bool
}

func (c *scanCheck) start(own *bitmap, a, b int64) {
	*c = scanCheck{own: own, want: own.next(a), b: b}
}

func (c *scanCheck) key(k int64) {
	if k != c.want || k > c.b {
		c.bad = true
		return
	}
	c.n++
	c.want = c.own.next(k + 1)
}

// done reports whether the keys delivered were exactly the oracle's keys
// in [a, b] and total matches their count.
func (c *scanCheck) done(total int64) bool {
	return !c.bad && total == c.n && (c.want > c.b || c.want >= c.own.size)
}
