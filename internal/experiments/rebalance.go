package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/shard"
	"repro/internal/workload"
)

// E14Rebalance — online shard rebalancing under skew (DESIGN.md §7).
//
// Part 1 (throughput): a clustered-zipf workload (skew s=1.2, hot ranks
// one contiguous run at the bottom of the key space) is the adversarial
// case for a static range partition — nearly all traffic lands on the
// shard owning the low keys, so "sharded" degrades to a single tree plus
// routing overhead. The sweep drives the mix through the single tree,
// the static 8-shard set, and the auto-rebalanced set (same 8 initial
// shards plus the background rebalancer), by thread count. The
// rebalancer splits the hot shard at its median key until the heat is
// spread across the partition, so the auto column should recover the
// multi-shard scaling the static column forfeits.
//
// Part 2 (trace): one auto-rebalanced run, sampled while it runs: shard
// count, completed splits/merges, and the share of current-generation
// load on the hottest shard. The trace shows the control loop converge —
// the hottest-shard share falling from ~100% toward 1/P as the shard
// count climbs.
func E14Rebalance(o Options) {
	keys := o.scale(1 << 20)
	const skew = 1.2
	targets := []string{
		harness.TargetPNBBST,
		harness.ShardedTarget(8),
		harness.ShardedAutoTarget(8),
	}
	mix := workload.Mix{InsertPct: 40, DeletePct: 40} // rest find; all point ops draw clustered-zipf keys
	tab := harness.NewTable(
		fmt.Sprintf("E14: 40i/40d/20f, %d keys, clustered zipf s=%.1f — Mops/s by threads: static vs auto-rebalanced shards", keys, skew),
		append([]string{"threads"}, targets...)...)
	for _, th := range o.threadSweep() {
		row := []any{th}
		for _, tgt := range targets {
			res := harness.Run(harness.Config{
				Target:        tgt,
				Threads:       th,
				Duration:      o.Duration,
				KeyRange:      keys,
				Prefill:       -1,
				Mix:           mix,
				ZipfSkew:      skew,
				ZipfClustered: true,
				Seed:          o.Seed,
			})
			row = append(row, res.MOpsPerSec())
		}
		tab.AddRow(row...)
	}
	o.emit(tab)

	traceRebalance(o, keys, skew)
}

// traceRebalance renders the shard-count-over-time trace: the rebalancer
// reacting to clustered-zipf heat, sampled at a fixed cadence.
func traceRebalance(o Options, keys int64, skew float64) {
	threads := o.MaxThreads
	if threads < 1 {
		threads = 1
	}
	samples := 12
	interval := o.Duration / time.Duration(samples)
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	s := shard.NewRange(0, keys-1, 8)
	rng := workload.NewRNG(o.Seed ^ 0xE14)
	for inserted := int64(0); inserted < keys/2; {
		if s.Insert(rng.Intn(keys)) {
			inserted++
		}
	}
	stop := s.AutoRebalance(shard.RebalanceConfig{})
	defer stop()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wrng := workload.NewRNG(o.Seed*1_000_003 + uint64(w))
			z := workload.NewZipfClustered(0, keys, skew)
			for {
				select {
				case <-done:
					return
				default:
				}
				k := z.Key(wrng)
				switch wrng.Intn(4) {
				case 0:
					s.Insert(k)
				case 1:
					s.Delete(k)
				default:
					s.Find(k)
				}
			}
		}(w)
	}

	tab := harness.NewTable(
		fmt.Sprintf("E14 trace: shard count over time, %d threads, clustered zipf s=%.1f", threads, skew),
		"t(ms)", "shards", "splits", "merges", "hottest-shard load share")
	t0 := time.Now()
	for i := 0; i < samples; i++ {
		time.Sleep(interval)
		loads := s.ShardLoads()
		var total, hot uint64
		for _, l := range loads {
			total += l
			if l > hot {
				hot = l
			}
		}
		share := 0.0
		if total > 0 {
			share = float64(hot) / float64(total)
		}
		splits, merges := s.Migrations()
		tab.AddRow(time.Since(t0).Milliseconds(), s.Shards(), splits, merges,
			fmt.Sprintf("%.0f%%", share*100))
	}
	close(done)
	wg.Wait()
	o.emit(tab)
}
