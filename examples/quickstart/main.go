// Quickstart: the PNB-BST public API in one minute.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/bst"
)

func main() {
	t := bst.New()

	// Linearizable, non-blocking updates and membership tests.
	for _, k := range []int64{42, 7, 99, 3, 58} {
		t.Insert(k)
	}
	t.Delete(99)
	fmt.Println("contains 42:", t.Contains(42)) // true
	fmt.Println("contains 99:", t.Contains(99)) // false

	// Wait-free, linearizable range queries, ascending.
	fmt.Println("keys in [0,50]:", t.RangeScan(0, 50)) // [3 7 42]
	fmt.Println("count in [0,100]:", t.RangeCount(0, 100))

	// Streaming scan without allocation; early stop supported.
	t.RangeScanFunc(0, 100, func(k int64) bool {
		fmt.Println("visit:", k)
		return k < 42 // stop after 42
	})

	// Persistence: a snapshot is a frozen version of the set. Updates
	// after the snapshot do not affect it.
	snap := t.Snapshot()
	t.Insert(1000)
	t.Delete(3)
	fmt.Println("live keys:    ", t.Keys())
	fmt.Println("snapshot keys:", snap.Keys())
	fmt.Println("snapshot still has 3:", snap.Contains(3))

}
