// Orderindex: a limit-order price index. Price levels (integer ticks)
// live in a PNB-BST; market-data threads add and remove levels at high
// rate while trading logic runs best-bid/ask queries and depth scans —
// the range-query workload the paper's introduction motivates.
//
//	go run ./examples/orderindex
package main

import (
	"flag"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/bst"
	"repro/internal/workload"
)

const (
	midPrice   = 50_000 // ticks
	bookDepth  = 2_000  // ticks of initial depth each side
	feeders    = 3
	levelProbe = 10 // "top 10 levels" queries
)

// runFor is how long feeders and queries race; CI shortens it so the
// example doubles as a bounded end-to-end check of its crossed-book
// assertion.
var runFor = flag.Duration("runfor", time.Second, "how long to run the feeders + trading queries")

func main() {
	flag.Parse()
	bids := bst.New() // prices with resting buy interest
	asks := bst.New() // prices with resting sell interest
	for i := int64(1); i <= bookDepth; i++ {
		bids.Insert(midPrice - i)
		asks.Insert(midPrice + i)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	var updates atomic.Int64

	// Feeders churn price levels around the mid.
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			rng := workload.NewRNG(uint64(f) + 7)
			for !stop.Load() {
				side, off := bids, rng.Intn(bookDepth)+1
				price := int64(midPrice) - off
				if rng.Intn(2) == 0 {
					side, price = asks, int64(midPrice)+off
				}
				if rng.Intn(2) == 0 {
					side.Insert(price)
				} else {
					side.Delete(price)
				}
				updates.Add(1)
			}
		}(f)
	}

	// Trading logic: best-bid/ask and top-of-book depth via wait-free
	// range scans; never blocked by the feeders.
	wg.Add(1)
	var queries atomic.Int64
	go func() {
		defer wg.Done()
		for !stop.Load() {
			bestBid := topBid(bids)
			bestAsk := topAsk(asks)
			if bestBid >= bestAsk && bestBid != 0 && bestAsk != 0 {
				panic("crossed book on consistent scans — impossible")
			}
			queries.Add(1)
		}
	}()

	time.Sleep(*runFor)
	stop.Store(true)
	wg.Wait()

	fmt.Printf("feed updates: %d, trading queries: %d\n", updates.Load(), queries.Load())

	// Final consistent views via one snapshot per side.
	bidSnap, askSnap := bids.Snapshot(), asks.Snapshot()
	fmt.Printf("final book: %d bid levels, %d ask levels\n", bidSnap.Len(), askSnap.Len())
	fmt.Printf("top %d bids: %v\n", levelProbe, lastN(bidSnap.RangeScan(0, midPrice), levelProbe))
	fmt.Printf("top %d asks: %v\n", levelProbe, firstN(askSnap.RangeScan(midPrice, bst.MaxKey), levelProbe))
}

// topBid returns the highest bid price (0 if none) by scanning the top
// slice of the bid range; wait-free.
func topBid(bids *bst.ShardedMap) int64 {
	var best int64
	bids.RangeScanFunc(0, midPrice, func(k int64) bool {
		best = k // ascending; last one wins
		return true
	})
	return best
}

// topAsk returns the lowest ask price (0 if none); early-stops after the
// first key, so it is O(path) regardless of book depth.
func topAsk(asks *bst.ShardedMap) int64 {
	var best int64
	asks.RangeScanFunc(midPrice, bst.MaxKey, func(k int64) bool {
		best = k
		return false
	})
	return best
}

func firstN(s []int64, n int) []int64 {
	if len(s) > n {
		return s[:n]
	}
	return s
}

func lastN(s []int64, n int) []int64 {
	if len(s) > n {
		return s[len(s)-n:]
	}
	return s
}
