package core

import (
	"maps"
	"testing"

	"repro/internal/seqset"
)

// FuzzTreeVsOracle is the wide-surface fuzz wall: arbitrary bytes decode
// into an operation tape covering the full read/write surface of a
// Map[int64] — point ops including Put (insert or replace) and Get, range
// scans and counts, ordered queries (Succ/Pred/Min/Max), snapshot cuts
// held across later updates, mid-tape snapshot releases, bulk
// construction (buildFromSorted as the starting state) and Compact
// passes — every key result checked against the sequential seqset oracle
// and every value against a Go map, every live snapshot checked against
// the oracle keys and values frozen when its cut was taken. The checked-in
// corpus under testdata/fuzz covers each opcode; run
// `go test -fuzz=FuzzTreeVsOracle` for continuous fuzzing (CI runs a
// short-budget smoke).
func FuzzTreeVsOracle(f *testing.F) {
	f.Add([]byte{}, byte(0))
	f.Add([]byte{0, 5, 0, 4, 0, 0, 1, 5, 0, 5, 0, 0}, byte(0))                      // insert, snapshot, delete, verify+release
	f.Add([]byte{6, 10, 0, 7, 10, 0, 3, 0, 200, 8, 0, 200}, byte(9))                // ordered queries + scans on a built tree
	f.Add([]byte{0, 1, 0, 9, 0, 0, 1, 1, 0, 9, 0, 0, 2, 1, 0}, byte(3))             // compact between updates
	f.Add([]byte{4, 0, 0, 0, 7, 0, 4, 0, 0, 1, 7, 0, 5, 0, 0, 5, 0, 0}, byte(0))    // stacked snapshots
	f.Add([]byte{10, 6, 1, 4, 0, 0, 10, 6, 2, 11, 6, 0, 9, 0, 0, 5, 0, 0}, byte(4)) // replace under a snapshot, Compact, verify
	f.Fuzz(func(t *testing.T, raw []byte, prefill byte) {
		// Start from a bulk-built map holding `prefill` evenly spread
		// keys, so the tape also exercises BuildFromSorted shapes.
		oracle := seqset.New()
		vals := map[int64]int64{} // bound values; Insert and the prefill bind 0
		for i := 0; i < int(prefill); i++ {
			oracle.Insert(int64(i) * 3)
			vals[int64(i)*3] = 0
		}
		base := oracle.Keys()
		tr, err := buildFromSorted[int64](nil, len(base), func() (int64, bool) {
			k := base[0]
			base = base[1:]
			return k, true
		})
		if err != nil {
			t.Fatalf("buildFromSorted: %v", err)
		}
		type cut struct {
			snap *MapSnapshot[int64]
			keys []int64
			vals map[int64]int64
		}
		var cuts []cut
		verifyOldest := func() {
			if len(cuts) == 0 {
				return
			}
			c := cuts[0]
			cuts = cuts[1:]
			if got := c.snap.Keys(); !equalKeys(got, c.keys) {
				t.Fatalf("snapshot cut diverged: %v, want %v", got, c.keys)
			}
			c.snap.EntriesFunc(MinKey, MaxKey, func(k, v int64) bool {
				if want := c.vals[k]; v != want {
					t.Fatalf("snapshot cut binds %d to %d, want %d", k, v, want)
				}
				return true
			})
			for _, k := range c.keys {
				if v, ok := c.snap.Get(k); !ok || v != c.vals[k] {
					t.Fatalf("snapshot Get(%d) = %d,%v, want %d", k, v, ok, c.vals[k])
				}
			}
			c.snap.Release()
		}
		for i := 0; i+2 < len(raw); i += 3 {
			k := int64(raw[i+1])
			b := k + int64(raw[i+2])
			switch raw[i] % 12 {
			case 0:
				if tr.Insert(k) != oracle.Insert(k) {
					t.Fatalf("Insert(%d) diverged", k)
				}
				if _, ok := vals[k]; !ok {
					vals[k] = 0
				}
			case 1:
				if tr.Delete(k) != oracle.Delete(k) {
					t.Fatalf("Delete(%d) diverged", k)
				}
				delete(vals, k)
			case 2:
				if tr.Find(k) != oracle.Contains(k) {
					t.Fatalf("Find(%d) diverged", k)
				}
			case 3:
				if !equalKeys(tr.RangeScan(k, b), oracle.RangeScan(k, b)) {
					t.Fatalf("RangeScan(%d,%d) diverged", k, b)
				}
			case 4:
				if len(cuts) < 8 { // bound live horizon pins
					cuts = append(cuts, cut{tr.Snapshot(), oracle.Keys(), maps.Clone(vals)})
				}
			case 5:
				verifyOldest()
			case 6:
				gotK, gotOK := tr.Succ(k)
				wantK, wantOK := oracleSucc(oracle, k)
				if gotOK != wantOK || (gotOK && gotK != wantK) {
					t.Fatalf("Succ(%d) = %d,%v, want %d,%v", k, gotK, gotOK, wantK, wantOK)
				}
			case 7:
				gotK, gotOK := tr.Pred(k)
				wantK, wantOK := oraclePred(oracle, k)
				if gotOK != wantOK || (gotOK && gotK != wantK) {
					t.Fatalf("Pred(%d) = %d,%v, want %d,%v", k, gotK, gotOK, wantK, wantOK)
				}
			case 8:
				if got, want := tr.RangeCount(k, b), len(oracle.RangeScan(k, b)); got != want {
					t.Fatalf("RangeCount(%d,%d) = %d, want %d", k, b, got, want)
				}
			case 9:
				tr.Compact() // live snapshots must pin their cuts through this
			case 10:
				v := int64(i)<<8 | int64(raw[i+2]) // distinct per op, so a stale value shows
				if tr.Put(k, v) != !oracle.Insert(k) {
					t.Fatalf("Put(%d) replace flag diverged", k)
				}
				vals[k] = v
			case 11:
				v, ok := tr.Get(k)
				if want, had := vals[k]; ok != had || v != want {
					t.Fatalf("Get(%d) = %d,%v, want %d,%v", k, v, ok, want, had)
				}
			}
		}
		for len(cuts) > 0 {
			verifyOldest()
		}
		// Quiescent: the drain's |T_H| must be the whole version graph.
		if cs, vg := tr.Compact(), tr.VersionGraphSize(); cs.LiveNodes != vg {
			t.Fatalf("final Compact reports %d live nodes, version graph holds %d", cs.LiveNodes, vg)
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if !equalKeys(tr.Keys(), oracle.Keys()) {
			t.Fatal("final keys diverged")
		}
		tr.EntriesFunc(MinKey, MaxKey, func(k, v int64) bool {
			if v != vals[k] {
				t.Fatalf("final binding %d=%d, want %d", k, v, vals[k])
			}
			return true
		})
	})
}

func oracleSucc(o *seqset.Set, k int64) (int64, bool) {
	for _, x := range o.Keys() {
		if x >= k {
			return x, true
		}
	}
	return 0, false
}

func oraclePred(o *seqset.Set, k int64) (int64, bool) {
	got, ok := int64(0), false
	for _, x := range o.Keys() {
		if x <= k {
			got, ok = x, true
		}
	}
	return got, ok
}

// FuzzOpsVsOracle decodes arbitrary bytes into an operation script and
// cross-checks every return value, every scan, and the final structure
// against the sequential oracle. Run with `go test -fuzz=FuzzOpsVsOracle`
// for continuous fuzzing; the seed corpus below runs under plain `go
// test` and covers each opcode and mixed scripts.
func FuzzOpsVsOracle(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 5, 0})                                     // single insert
	f.Add([]byte{0, 5, 0, 1, 5, 0})                            // insert then delete
	f.Add([]byte{0, 5, 0, 2, 5, 0, 3, 0, 60})                  // insert, find, scan
	f.Add([]byte{0, 1, 0, 0, 2, 0, 0, 3, 0, 1, 2, 0, 3, 0, 9}) // mixed
	f.Add([]byte{3, 0, 255, 3, 255, 0})                        // scans incl. inverted
	f.Fuzz(func(t *testing.T, raw []byte) {
		tr := New()
		oracle := seqset.New()
		var snaps []*Snapshot
		var snapKeys [][]int64
		for i := 0; i+2 < len(raw); i += 3 {
			k := int64(raw[i+1])
			switch raw[i] % 5 {
			case 0:
				if tr.Insert(k) != oracle.Insert(k) {
					t.Fatalf("Insert(%d) diverged", k)
				}
			case 1:
				if tr.Delete(k) != oracle.Delete(k) {
					t.Fatalf("Delete(%d) diverged", k)
				}
			case 2:
				if tr.Find(k) != oracle.Contains(k) {
					t.Fatalf("Find(%d) diverged", k)
				}
			case 3:
				b := k + int64(raw[i+2])
				if !equalKeys(tr.RangeScan(k, b), oracle.RangeScan(k, b)) {
					t.Fatalf("RangeScan(%d,%d) diverged", k, b)
				}
			case 4:
				snaps = append(snaps, tr.Snapshot())
				snapKeys = append(snapKeys, oracle.Keys())
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		if !equalKeys(tr.Keys(), oracle.Keys()) {
			t.Fatal("final keys diverged")
		}
		for i, s := range snaps {
			if !equalKeys(s.Keys(), snapKeys[i]) {
				t.Fatalf("snapshot %d diverged", i)
			}
		}
	})
}
