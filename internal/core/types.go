package core

import (
	"math"
	"sync/atomic"
)

// Key sentinels. The paper stores keys from Key ∪ {∞1, ∞2}; we reserve the
// top two values of the int64 key space for the sentinels, so user keys
// must be at most MaxKey.
const (
	inf1 = math.MaxInt64 - 1 // ∞1: larger than every user key
	inf2 = math.MaxInt64     // ∞2: larger than ∞1

	// MaxKey is the largest key a caller may store.
	MaxKey = inf1 - 1
	// MinKey is the smallest key a caller may store.
	MinKey = math.MinInt64
)

// Info.state values (paper: {⊥, Try, Commit, Abort}).
const (
	stateUndecided int32 = iota // ⊥ — attempt not yet through handshaking
	stateTry                    // handshake passed, freezing in progress
	stateCommit                 // child CAS applied; update took effect
	stateAbort                  // attempt abandoned (handshake or freeze failed)
)

// descType distinguishes flag from mark freezes (paper: Update.type).
type descType uint8

const (
	flag descType = iota // node's child pointer is about to change
	mark                 // node is about to be removed (permanent if committed)
)

// descriptor is the paper's one-word Update record {type, *Info}. Every
// info embeds exactly one flag descriptor and one mark descriptor
// (flagD/markD below), both pointing back at it, so installing a freeze
// costs no allocation: the CAS installs &in.flagD or &in.markD. The
// descriptor values are immutable, even across reuse of their header, so
// CAS on the *descriptor pointer is equivalent to CAS on the packed word
// as long as no CAS ever expects a descriptor whose header has since been
// handed to a new attempt. Header reuse keeps that (pool.go, DESIGN.md
// §10.3): a header is pooled only once no node names it and two pin
// drains have passed, so the paper's no-ABA argument (Lemma 7) — every
// successful CAS installs a pointer to an Info created after the expected
// value was read — holds unchanged.
type descriptor[V any] struct {
	typ  descType
	info *info[V]
}

// maxFreeze bounds the nodes one attempt touches: Insert freezes
// {parent, leaf}, Delete freezes {grandparent, parent, leaf, sibling}.
const maxFreeze = 4

// info is the header of the paper's Info object (Figure 2, lines 5-14):
// the part node update fields point at. It describes one attempt of an
// Insert, Put or Delete so that any process can complete (help) or abort
// it. Readers of a decided attempt consult only its state (through the
// descriptors' types), so the header holds just that, a reference count
// and the body pointer: six words for every V, the 48 B size class
// (pinned by TestInfoLayout).
//
// The rest of the attempt lives in the body, which is read only by help
// while the attempt is undecided and by Compact's drain. Every published
// info is pushed onto the tree's retire stack (body.retireNext) when its
// attempt returns, and once the pin drain proves no helper that saw the
// attempt undecided is still running, Compact zeroes the body and reuses
// it (pool.go): detached (body = nil) and pooled while nodes still name
// the header, else left attached to carry the header through its drains.
//
// The header itself is pooled once refs reaches zero and two more pin
// drains have passed (pool.go, DESIGN.md §10.3). refs counts the nodes
// whose update field names the header, plus one for its attached body:
// a freeze CAS adds one before it tries to install a descriptor (and
// takes it back if the CAS fails), a successful one subtracts one from
// the header it replaced, and Compact subtracts one when it detaches the
// body and one per marked node when it collects a drained commit's
// marked nodes for poisoning. So refs never falls below the number of
// nodes naming the header other than those collected nodes, which no
// traversal can reach and which are poisoned in the same step that drops
// the body's reference; it reaches zero once, after the body is gone and
// no node names the header.
type info[V any] struct {
	state atomic.Int32 // ⊥ / Try / Commit / Abort
	refs  atomic.Int32 // naming nodes + 1 while the body is attached; fits state's padding

	// Pre-typed freeze descriptors pointing back at this info. They are
	// initialized once, when newInfo allocates the header, and never
	// change, even across pool reuse: flagD = {flag, this},
	// markD = {mark, this}.
	flagD, markD descriptor[V]

	// body is the attempt's description; nil for the dummy and once the
	// body was recycled while nodes still name the header. A header with
	// zero refs carries a zeroed body through its drains into the header
	// pool (pool.go). Written by newInfo and by Compact's recycling,
	// which runs only after the pin drain, so no helper reads it then.
	body *infoBody[V]
}

// infoBody is the recyclable part of an Info object: everything help
// needs to complete an undecided attempt and Compact needs to drain a
// decided one. All fields except freed and retireNext are immutable
// between newInfo and the attempt's decision.
type infoBody[V any] struct {
	nn        uint8                     // number of nodes to freeze
	markMask  uint8                     // bit i set ⇒ nodes[i] is marked (mark ⊆ nodes)
	delta     int8                      // live-node change on commit: +2 insert, -2 delete, 0 replace
	freed     atomic.Uint32             // bit i set ⇒ the freeze of nodes[i] dropped oldUpdate[i]'s header to zero refs
	nodes     [maxFreeze]*node[V]       // nodes to freeze, in freeze order; nodes[0] is flagged first
	oldUpdate [maxFreeze]*descriptor[V] // expected update values for the freeze CASes
	par       *node[V]                  // node whose child pointer changes (an element of nodes)
	oldChild  *node[V]                  // expected child of par
	newChild  *node[V]                  // replacement child; newChild.prev == oldChild
	seq       uint64                    // phase of the attempt

	// retireNext links the tree's retire stack (intrusive, so a push is
	// one CAS and no allocation). Written by the owner before its push
	// CAS; read and reset only by Compact after popping. In a body that
	// carries a header with zero refs it links Compact's header lists.
	retireNext *info[V]
}

// leafBit is packed into the top bit of node.seqLeaf. Phase numbers are
// counters starting at 0, so bit 63 is never reached by a real phase.
const leafBit = uint64(1) << 63

// node represents both Internal and Leaf nodes (paper Figure 2, lines
// 15-27). A leaf never has its left/right pointers set; the leaf bit of
// seqLeaf discriminates. key, val and seqLeaf are immutable after creation
// (except for poisoning of recycled nodes, see pool.go); val is the leaf's
// value and stays zero in internal nodes. prev is written
// once at creation (the node this one replaced in its parent; nil for
// phase-0 nodes and fresh leaves) and may later be reset to nil —
// exactly once, monotonically — by the version pruner once the phase of
// the update that created this node has fallen to the reclamation
// horizon (see prune.go). Readers therefore load it atomically. For the
// set (V = struct{}) that is six words: 48 B, the 48 B size class (pinned
// by TestNodeLayout). val must not be the last field: a trailing
// zero-size field is padded, which would push the set's node to 56 B.
type node[V any] struct {
	key     int64
	val     V
	seqLeaf uint64 // bit 63 = leaf flag, low 63 bits = creation phase

	prev        atomic.Pointer[node[V]]
	update      atomic.Pointer[descriptor[V]]
	left, right atomic.Pointer[node[V]] // internal nodes only
}

// seqNum returns the phase of the operation that created this node.
func (n *node[V]) seqNum() uint64 { return n.seqLeaf &^ leafBit }

// isLeaf reports whether n is a leaf.
func (n *node[V]) isLeaf() bool { return n.seqLeaf&leafBit != 0 }

// packSeqLeaf packs a phase number and the leaf flag into one word.
func packSeqLeaf(seq uint64, leaf bool) uint64 {
	if leaf {
		return seq | leafBit
	}
	return seq
}

// frozen reports whether a node whose update field holds d is frozen
// (paper lines 89-91): flagged with an in-progress attempt, or marked by
// an attempt that has not aborted (a committed mark is permanent).
func frozen[V any](d *descriptor[V]) bool {
	s := d.info.state.Load()
	if d.typ == flag {
		return s == stateUndecided || s == stateTry
	}
	// mark
	return s == stateUndecided || s == stateTry || s == stateCommit
}

// inProgress reports whether the attempt described by in has neither
// committed nor aborted yet.
func inProgress[V any](in *info[V]) bool {
	s := in.state.Load()
	return s == stateUndecided || s == stateTry
}
