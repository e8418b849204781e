package shard

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// ErrUnsortedBulkLoad reports BulkLoad input that is not strictly
// ascending (duplicates included).
var ErrUnsortedBulkLoad = errors.New("shard: BulkLoad keys must be strictly ascending")

// BulkLoad ingests a strictly ascending key sequence through the fast
// path that shard migrations already use: instead of O(n log n)
// CAS-heavy Inserts it takes ONE migration-style cut of every shard,
// merges each shard's frozen contents with its slice of the new keys,
// and installs balanced, CAS-free replacement trees built by
// core.BuildFromSorted — one routing-table swap for the whole load. It
// returns how many keys were newly added (keys already present count
// toward neither, like a false Insert).
//
// Concurrency contract: the load is one atomic cut. Readers stay
// wait-free throughout (a reader that resolved the old table traverses
// the sealed victims, which hold exactly the pre-load state); updates
// that land on a sealed shard yield and re-route once the new table
// publishes, exactly as during a Split/Merge. The whole load serializes
// with migrations on the same lock, so boundaries cannot shift under it.
// Keys must lie in [core.MinKey, core.MaxKey].
func (s *Set) BulkLoad(keys []int64) (added int, err error) {
	added, _, err = s.BulkLoadPhase(keys)
	return added, err
}

// BulkLoadPhase is BulkLoad that additionally reports the migration cut
// phase the load was linearized at: the loaded keys are present in every
// read at a phase > cut and absent (unless individually inserted) from
// every read at a phase <= cut. Durability logs bulk loads as one WAL
// record stamped with this phase.
func (s *Set) BulkLoadPhase(keys []int64) (added int, cut uint64, err error) {
	for i, k := range keys {
		if k > core.MaxKey {
			return 0, 0, fmt.Errorf("shard: BulkLoad key %d exceeds MaxKey", k)
		}
		if i > 0 && k <= keys[i-1] {
			return 0, 0, fmt.Errorf("%w (%d after %d)", ErrUnsortedBulkLoad, k, keys[i-1])
		}
	}
	if len(keys) == 0 {
		return 0, 0, nil
	}

	s.migrateMu.Lock()
	defer s.migrateMu.Unlock()
	tab := s.tab.Load()
	p := len(tab.trees)
	snaps, cut := s.cutShards(tab, 0, p-1)
	defer func() {
		for _, snap := range snaps {
			snap.Release()
		}
	}()

	trees := make([]*core.Tree, p)
	lo := 0
	for i := 0; i < p; i++ {
		// keys[lo:hi] is shard i's slice of the load (ascending input,
		// ascending disjoint shard ranges — a single forward split).
		_, hiBound := tab.r.Bounds(i)
		hi := lo
		for hi < len(keys) && keys[hi] <= hiBound {
			hi++
		}
		merged, n := mergeSortedUnique(snaps[i], keys[lo:hi])
		added += n
		t, err := core.BuildFromSortedKeys(s.clock, merged)
		if err != nil { // unreachable: both sources are validated ascending
			panic(fmt.Sprintf("shard: building bulk-loaded shard: %v", err))
		}
		trees[i] = t
		lo = hi
	}
	s.install(tab, 0, p-1, tab.r.starts, trees)
	return added, cut, nil
}

// mergeSortedUnique merges a shard snapshot's keys with the shard's
// slice of the load (both strictly ascending) into one ascending slice,
// returning it and how many load keys were not already present.
func mergeSortedUnique(snap *core.Snapshot, load []int64) ([]int64, int) {
	out := make([]int64, 0, snap.Len()+len(load))
	fresh := 0
	it := snap.Iter(core.MinKey, core.MaxKey)
	have, ok := int64(0), it.Next()
	if ok {
		have = it.Key()
	}
	for _, k := range load {
		for ok && have < k {
			out = append(out, have)
			if ok = it.Next(); ok {
				have = it.Key()
			}
		}
		if ok && have == k {
			out = append(out, have) // already present: consume both
			if ok = it.Next(); ok {
				have = it.Key()
			}
			continue
		}
		out = append(out, k)
		fresh++
	}
	for ok {
		out = append(out, have)
		if ok = it.Next(); ok {
			have = it.Key()
		}
	}
	return out, fresh
}
