// Snapshots: the persistence pay-off. This example keeps a rolling
// series of point-in-time snapshots of a churning set and demonstrates
// that (a) every snapshot stays frozen forever, (b) snapshots support
// the full read API, and (c) two snapshots can be diffed to compute
// exactly what changed between two moments — all wait-free, while
// updates continue.
//
//	go run ./examples/snapshots
package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/bst"
)

func main() {
	t := bst.New()
	for i := int64(0); i < 1000; i++ {
		t.Insert(i)
	}

	// Background churn: rotate the key space upward forever.
	var stop atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		next := int64(1000)
		for !stop.Load() {
			t.Delete(next - 1000)
			t.Insert(next)
			next++
		}
	}()

	// Take a snapshot every few milliseconds.
	var snaps []*bst.ShardedSnapshot
	for i := 0; i < 5; i++ {
		snaps = append(snaps, t.Snapshot())
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	<-done

	fmt.Println("live set size:", t.Len())
	for i, s := range snaps {
		keys := s.Keys()
		fmt.Printf("snapshot %d (phase %d): %d keys, span [%d..%d]\n",
			i, s.Seq(), len(keys), keys[0], keys[len(keys)-1])
		// Read it again: identical (frozen), regardless of churn since.
		if again := s.Keys(); len(again) != len(keys) || again[0] != keys[0] {
			panic("snapshot changed — impossible")
		}
	}

	// Diff the first and last snapshots.
	first, last := snaps[0], snaps[len(snaps)-1]
	added, removed := diff(first, last)
	fmt.Printf("between snapshot 0 and %d: +%d keys, -%d keys\n",
		len(snaps)-1, added, removed)

	// Point lookups work on snapshots too.
	probe := first.Keys()[0]
	fmt.Printf("oldest key of snapshot 0 (%d): in snap0=%v, in snap%d=%v, live=%v\n",
		probe, first.Contains(probe), len(snaps)-1, last.Contains(probe), t.Contains(probe))
}

// diff counts keys added and removed between two snapshots by a linear
// merge of their sorted key lists.
func diff(a, b *bst.ShardedSnapshot) (added, removed int) {
	ka, kb := a.Keys(), b.Keys()
	i, j := 0, 0
	for i < len(ka) || j < len(kb) {
		switch {
		case i >= len(ka):
			added++
			j++
		case j >= len(kb):
			removed++
			i++
		case ka[i] == kb[j]:
			i++
			j++
		case ka[i] < kb[j]:
			removed++
			i++
		default:
			added++
			j++
		}
	}
	return added, removed
}
