package bst_test

import (
	"fmt"

	"repro/bst"
)

// ExampleNew runs the package documentation's quickstart.
func ExampleNew() {
	t := bst.New()
	t.Insert(42)
	t.Insert(7)
	keys := t.RangeScan(0, 100) // [7 42], wait-free, linearizable
	s := t.Snapshot()           // frozen point-in-time view
	t.Delete(7)
	fmt.Println(keys)
	fmt.Println(s.Contains(7), t.Contains(7)) // still true in the snapshot
	s.Release()
	// Output:
	// [7 42]
	// true false
}
