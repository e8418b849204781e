// Package core implements PNB-BST, the persistent non-blocking binary
// search tree with wait-free range queries of Fatourou and Ruppert
// (SPAA 2019, FORTH ICS TR 470).
//
// The tree is leaf-oriented: all keys of the set live in leaves; internal
// nodes carry routing keys. Insert, Delete and Find are non-blocking
// (lock-free); RangeScan and Snapshot are wait-free. The structure is
// persistent: every node records the node it replaced (prev) and the
// sequence number (phase) of the operation that created it, so the tree
// as of any earlier phase can be re-traversed.
//
// The algorithm is generic in what a leaf carries: Map[V] keeps a value
// in each leaf and adds Put (replace a present key's leaf), Get and entry
// scans; the paper's set is Tree, the struct{} instantiation.
//
// The implementation follows the paper's pseudocode (Figures 2-5)
// line-by-line; DESIGN.md maps each routine to its pseudocode lines.
//
// File layout: types.go holds the node/Info/Update representations and
// key sentinels; tree.go the update protocol (Search, ValidateLink,
// Get/Find, Insert/Put, Delete, Execute, Help); scan.go the wait-free
// range scans; snapshot.go the persistent point-in-time views; ordered.go
// the Min/Max/Succ/Pred queries; invariants.go the structural checkers
// used by tests and cmd/stress; stats.go the instrumentation counters.
package core
