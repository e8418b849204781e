// Benchmarks: one Benchmark family per evaluation experiment (E1..E18 in
// DESIGN.md §4 / EXPERIMENTS.md). Each family measures a representative
// point of its experiment with testing.B semantics; the full sweeps —
// thread counts, key ranges, widths — are produced by cmd/benchbst.
//
// Run all:     go test -bench=. -benchmem
// One family:  go test -bench=BenchmarkE6 -benchmem
package repro_test

import (
	"context"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/bst"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/loadgen"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wire"
	"repro/internal/workload"
)

// throughputTargets are the structures compared in E1/E2.
var throughputTargets = []string{
	harness.TargetPNBBST, harness.TargetNBBST, harness.TargetLockBST, harness.TargetSkipList,
}

// scanTargets are the structures with consistent scans compared in E3/E6.
var scanTargets = []string{
	harness.TargetPNBBST, harness.TargetLockBST, harness.TargetSnapCollector,
}

// prefilled builds an instance holding n/2 random keys from [0, n).
func prefilled(tb testing.TB, target string, n int64) harness.Instance {
	tb.Helper()
	inst := harness.NewInstance(target)
	rng := workload.NewRNG(7)
	inserted := int64(0)
	for inserted < n/2 {
		if inst.Insert(rng.Intn(n)) {
			inserted++
		}
	}
	return inst
}

// runMix drives a workload mix through b.RunParallel on a prefilled set.
func runMix(b *testing.B, target string, keys int64, mix workload.Mix) {
	inst := prefilled(b, target, keys)
	var seed atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := workload.NewRNG(seed.Add(1))
		for pb.Next() {
			k := rng.Intn(keys)
			switch mix.Draw(rng) {
			case workload.OpInsert:
				inst.Insert(k)
			case workload.OpDelete:
				inst.Delete(k)
			case workload.OpFind:
				inst.Contains(k)
			case workload.OpScan:
				hi := k + mix.ScanWidth - 1
				if hi >= keys {
					hi = keys - 1
				}
				inst.Scan(k, hi)
			}
		}
	})
}

// BenchmarkE1UpdateOnly — experiment E1: 50% insert / 50% delete over a
// 64K key range, all four structures.
func BenchmarkE1UpdateOnly(b *testing.B) {
	for _, tgt := range throughputTargets {
		b.Run(tgt, func(b *testing.B) {
			runMix(b, tgt, 1<<16, workload.Mix{InsertPct: 50, DeletePct: 50})
		})
	}
}

// BenchmarkE2ReadMostly — experiment E2: 9i/1d/90f over 64K keys.
func BenchmarkE2ReadMostly(b *testing.B) {
	for _, tgt := range throughputTargets {
		b.Run(tgt, func(b *testing.B) {
			runMix(b, tgt, 1<<16, workload.Mix{InsertPct: 9, DeletePct: 1})
		})
	}
}

// BenchmarkE3MixedScan — experiment E3: 25i/25d/50 scans of width 100
// over 64K keys, on the three consistent-scan structures.
func BenchmarkE3MixedScan(b *testing.B) {
	for _, tgt := range scanTargets {
		b.Run(tgt, func(b *testing.B) {
			runMix(b, tgt, 1<<16, workload.Mix{InsertPct: 25, DeletePct: 25, ScanPct: 50, ScanWidth: 100})
		})
	}
}

// BenchmarkE4ScanWidth — experiment E4: PNB-BST scan cost by width; the
// reported ns/op should grow roughly linearly with width past the path
// cost, and keys/op is reported as a custom metric.
func BenchmarkE4ScanWidth(b *testing.B) {
	const keys = 1 << 16
	for _, width := range []int64{10, 100, 1_000, 10_000} {
		b.Run(itoa(width), func(b *testing.B) {
			inst := prefilled(b, harness.TargetPNBBST, keys)
			rng := workload.NewRNG(3)
			var got int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := rng.Intn(keys - width)
				got += int64(inst.Scan(a, a+width-1))
			}
			b.ReportMetric(float64(got)/float64(b.N), "keys/scan")
		})
	}
}

// BenchmarkE5Overhead — experiment E5: the persistence tax, PNB vs NB on
// identical single-threaded update streams (compare the two ns/op).
func BenchmarkE5Overhead(b *testing.B) {
	for _, tgt := range []string{harness.TargetPNBBST, harness.TargetNBBST} {
		b.Run(tgt, func(b *testing.B) {
			const keys = 1 << 16
			inst := prefilled(b, tgt, keys)
			rng := workload.NewRNG(9)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := rng.Intn(keys)
				if i%2 == 0 {
					inst.Insert(k)
				} else {
					inst.Delete(k)
				}
			}
		})
	}
}

// BenchmarkE6ScanLatency — experiment E6: full-range scan cost while an
// update storm runs in the background; compare ns/op (one op = one full
// scan) across the three consistent-scan structures. PNB-BST's scans are
// wait-free, so their cost tracks tree size, not update pressure.
func BenchmarkE6ScanLatency(b *testing.B) {
	const keys = 1 << 15
	for _, tgt := range scanTargets {
		b.Run(tgt, func(b *testing.B) {
			inst := prefilled(b, tgt, keys)
			var stop atomic.Bool
			done := make(chan struct{})
			go func() {
				defer close(done)
				rng := workload.NewRNG(11)
				for !stop.Load() {
					k := rng.Intn(keys)
					if rng.Intn(2) == 0 {
						inst.Insert(k)
					} else {
						inst.Delete(k)
					}
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst.Scan(0, keys-1)
			}
			b.StopTimer()
			stop.Store(true)
			<-done
		})
	}
}

// BenchmarkE7Allocs — experiment E7: allocations per operation (run with
// -benchmem; the B/op and allocs/op columns are the table).
func BenchmarkE7Allocs(b *testing.B) {
	const keys = 1 << 16
	type op struct {
		name string
		run  func(inst harness.Instance, rng *workload.RNG, i int64)
	}
	ops := []op{
		// Fresh keys above the prefill range: both halves of the pair
		// succeed, so the measurement reflects a full update cycle rather
		// than mostly failed (allocation-free) attempts.
		{"insdel-pair", func(inst harness.Instance, _ *workload.RNG, i int64) {
			k := keys + i%keys
			inst.Insert(k)
			inst.Delete(k)
		}},
		{"find", func(inst harness.Instance, rng *workload.RNG, _ int64) {
			inst.Contains(rng.Intn(keys))
		}},
		{"scan100", func(inst harness.Instance, rng *workload.RNG, _ int64) {
			a := rng.Intn(keys - 100)
			inst.Scan(a, a+99)
		}},
	}
	for _, tgt := range throughputTargets {
		for _, o := range ops {
			b.Run(tgt+"/"+o.name, func(b *testing.B) {
				inst := prefilled(b, tgt, keys)
				rng := workload.NewRNG(13)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					o.run(inst, rng, int64(i))
				}
			})
		}
	}
}

// BenchmarkE8Disjoint — experiment E8: disjoint partitions vs shared
// uniform keys under parallel updates on the PNB-BST.
func BenchmarkE8Disjoint(b *testing.B) {
	const keys = 1 << 16
	for _, disjoint := range []bool{true, false} {
		name := "shared"
		if disjoint {
			name = "disjoint"
		}
		b.Run(name, func(b *testing.B) {
			inst := prefilled(b, harness.TargetPNBBST, keys)
			var worker atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				w := worker.Add(1)
				rng := workload.NewRNG(w)
				// 64 notional partitions keep the slice width constant
				// regardless of GOMAXPROCS.
				gen := workload.KeyGen(workload.Uniform{Lo: 0, Hi: keys})
				if disjoint {
					gen = workload.Partition{Lo: 0, Hi: keys, Worker: int(w % 64), N: 64}
				}
				for pb.Next() {
					k := gen.Key(rng)
					if rng.Intn(2) == 0 {
						inst.Insert(k)
					} else {
						inst.Delete(k)
					}
				}
			})
		})
	}
}

// BenchmarkE9Handshake — experiment E9: update cost with and without
// phase churn from a background scanner; the aborts/op metric shows the
// handshake firing (and its ns/op cost staying modest).
func BenchmarkE9Handshake(b *testing.B) {
	const keys = 1 << 14
	for _, scans := range []bool{false, true} {
		name := "quiet"
		if scans {
			name = "scanner-active"
		}
		b.Run(name, func(b *testing.B) {
			tr := core.New()
			rng := workload.NewRNG(17)
			for i := 0; i < keys/2; i++ {
				tr.Insert(rng.Intn(keys))
			}
			var stop atomic.Bool
			done := make(chan struct{})
			if scans {
				go func() {
					defer close(done)
					for !stop.Load() {
						tr.RangeCount(0, 1024)
					}
				}()
			} else {
				close(done)
			}
			tr.ResetStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := rng.Intn(keys)
				if i%2 == 0 {
					tr.Insert(k)
				} else {
					tr.Delete(k)
				}
			}
			b.StopTimer()
			stop.Store(true)
			<-done
			st := tr.Stats()
			b.ReportMetric(float64(st.HandshakeAborts)/float64(b.N), "aborts/op")
		})
	}
}

// BenchmarkE10Snapshot — experiment E10: snapshot + full iteration cost
// by tree size, with a background updater (ns/op is one full snapshot
// iteration; keys/op reported).
func BenchmarkE10Snapshot(b *testing.B) {
	for _, size := range []int64{1 << 10, 1 << 14, 1 << 17} {
		b.Run(itoa(size), func(b *testing.B) {
			tr := core.New()
			rng := workload.NewRNG(19)
			inserted := int64(0)
			for inserted < size {
				if tr.Insert(rng.Intn(size * 2)) {
					inserted++
				}
			}
			var stop atomic.Bool
			done := make(chan struct{})
			go func() {
				defer close(done)
				r := workload.NewRNG(23)
				for !stop.Load() {
					k := r.Intn(size * 2)
					if r.Intn(2) == 0 {
						tr.Insert(k)
					} else {
						tr.Delete(k)
					}
				}
			}()
			var total int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap := tr.Snapshot()
				n := 0
				snap.Range(core.MinKey, core.MaxKey, func(int64) bool { n++; return true })
				total += int64(n)
			}
			b.StopTimer()
			stop.Store(true)
			<-done
			b.ReportMetric(float64(total)/float64(b.N), "keys/op")
		})
	}
}

// shardedSweep is experiment E11's shard-count axis (single tree, then
// 1/4/16 shards), shared with the full sweep in internal/experiments so
// the benchmark families and Figure E11 stay in lockstep.
var shardedSweep = experiments.ShardSweep

// prefilledRange builds an instance whose shard boundaries (if any)
// split [0, n) and holds n/2 random keys of it.
func prefilledRange(tb testing.TB, target string, n int64) harness.Instance {
	tb.Helper()
	inst := harness.NewInstanceRange(target, 0, n-1)
	rng := workload.NewRNG(7)
	inserted := int64(0)
	for inserted < n/2 {
		if inst.Insert(rng.Intn(n)) {
			inserted++
		}
	}
	return inst
}

// BenchmarkShardedInsert — experiment E11 (updates): parallel 50i/50d
// over 64K keys on the single tree vs 1/4/16 range shards. With multiple
// shards, updates on different parts of the key space stop sharing a
// root and a phase counter.
func BenchmarkShardedInsert(b *testing.B) {
	const keys = 1 << 16
	for _, tgt := range shardedSweep {
		b.Run(tgt, func(b *testing.B) {
			inst := prefilledRange(b, tgt, keys)
			var seed atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := workload.NewRNG(seed.Add(1))
				for pb.Next() {
					k := rng.Intn(keys)
					if rng.Intn(2) == 0 {
						inst.Insert(k)
					} else {
						inst.Delete(k)
					}
				}
			})
		})
	}
}

// BenchmarkShardedScan — experiment E11 (scans): range scans of width
// 100 and of the full key range, single tree vs 1/4/16 shards. A narrow
// scan usually lands in one shard and costs the same as the baseline; a
// full-range scan pays one wait-free scan per shard.
func BenchmarkShardedScan(b *testing.B) {
	const keys = 1 << 16
	for _, width := range []int64{100, keys} {
		for _, tgt := range shardedSweep {
			b.Run(itoa(width)+"/"+tgt, func(b *testing.B) {
				inst := prefilledRange(b, tgt, keys)
				rng := workload.NewRNG(3)
				var got int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a := int64(0)
					if width < keys {
						a = rng.Intn(keys - width)
					}
					got += int64(inst.Scan(a, a+width-1))
				}
				b.ReportMetric(float64(got)/float64(b.N), "keys/scan")
			})
		}
	}
}

// BenchmarkE12ChurnMemory — experiment E12: steady-state memory under a
// 50/50 insert/delete churn, pruning on vs off. Each iteration is one
// batch of updates (plus, with pruning on, one Compact pass, so its cost
// is included in ns/op). The version-nodes and heap-objects metrics are
// the table: with pruning they stay O(live set); without, they grow with
// the total number of iterations run.
func BenchmarkE12ChurnMemory(b *testing.B) {
	const keys = 1 << 12
	const batch = 4096
	for _, prune := range []bool{true, false} {
		name := "prune-off"
		if prune {
			name = "prune-on"
		}
		b.Run(name, func(b *testing.B) {
			tr := core.New()
			rng := workload.NewRNG(29)
			for i := 0; i < keys/2; i++ {
				tr.Insert(rng.Intn(keys))
			}
			// The prune-off tree retains every version, Θ(batches); cap its
			// churn so a long -benchtime cannot grow the heap unboundedly
			// (256 batches ≈ 1M updates demonstrate the monotone growth).
			const pruneOffBatchCap = 256
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if prune || i < pruneOffBatchCap {
					for j := 0; j < batch; j++ {
						k := rng.Intn(keys)
						if j%2 == 0 {
							tr.Insert(k)
						} else {
							tr.Delete(k)
						}
					}
				}
				if prune {
					tr.Compact()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(tr.VersionGraphSize()), "version-nodes")
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			b.ReportMetric(float64(ms.HeapObjects), "heap-objects")
			runtime.KeepAlive(tr) // the retained versions must count as live above
		})
	}
}

// BenchmarkE13AtomicScan — experiment E13: the cost of the atomic
// cross-shard cut. Full-range scans over an 8-shard set while background
// updaters churn it, against the single tree. The atomic scan pays
// registration on every covered shard and couples the handshake across
// shards through the shared clock.
func BenchmarkE13AtomicScan(b *testing.B) {
	const keys = 1 << 16
	for _, tgt := range []string{harness.TargetPNBBST, harness.ShardedTarget(8)} {
		b.Run(tgt, func(b *testing.B) {
			inst := prefilledRange(b, tgt, keys)
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < 2; w++ { // background churn on all shards
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := workload.NewRNG(uint64(w) + 11)
					for !stop.Load() {
						k := rng.Intn(keys)
						if rng.Intn(2) == 0 {
							inst.Insert(k)
						} else {
							inst.Delete(k)
						}
					}
				}(w)
			}
			var got int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got += int64(inst.Scan(0, keys-1))
			}
			b.StopTimer()
			stop.Store(true)
			wg.Wait()
			b.ReportMetric(float64(got)/float64(b.N), "keys/scan")
		})
	}
}

// BenchmarkE12CompactPass — experiment E12: cost of one Compact pass at
// steady state (the tree is re-churned between passes so each pass has
// one batch of garbage to cut), by live-set size.
func BenchmarkE12CompactPass(b *testing.B) {
	for _, size := range []int64{1 << 10, 1 << 14} {
		b.Run(itoa(size), func(b *testing.B) {
			tr := core.New()
			rng := workload.NewRNG(31)
			inserted := int64(0)
			for inserted < size {
				if tr.Insert(rng.Intn(size * 2)) {
					inserted++
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < 256; j++ {
					k := rng.Intn(size * 2)
					if j%2 == 0 {
						tr.Insert(k)
					} else {
						tr.Delete(k)
					}
				}
				b.StartTimer()
				tr.Compact()
			}
		})
	}
	// The benchmark workloads' store: the even keys of [0, 2^20)
	// bulk-loaded into an 8-shard map. A pass costs what the updates since
	// the last one cost, not what the 2^19 keys cost.
	for _, updates := range []int{0, 1000, 100_000} {
		name := "sharded-2^19/quiescent"
		if updates > 0 {
			name = "sharded-2^19/after-" + itoa(int64(updates))
		}
		b.Run(name, func(b *testing.B) {
			const k = 1 << 20
			m := bst.NewShardedRange(0, k-1, 8)
			keys := make([]int64, 0, k/2)
			for x := int64(0); x < k; x += 2 {
				keys = append(keys, x)
			}
			if _, err := m.BulkLoad(keys); err != nil {
				b.Fatal(err)
			}
			m.Compact()
			rng := workload.NewRNG(31)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < updates; j++ {
					if x := rng.Intn(k); j%2 == 0 {
						m.Insert(x)
					} else {
						m.Delete(x)
					}
				}
				b.StartTimer()
				m.Compact()
			}
		})
	}
	// A map of 2^18 random keys runs on the same drain: a pass after 1 000
	// Put-replaces costs what those replaces cost.
	for _, puts := range []int{0, 1000} {
		name := "map-2^18/quiescent"
		if puts > 0 {
			name = "map-2^18/after-" + itoa(int64(puts)) + "-puts"
		}
		b.Run(name, func(b *testing.B) {
			m := bst.NewMap[int64]()
			rng := workload.NewRNG(41)
			keys := make([]int64, 0, 1<<18)
			for len(keys) < 1<<18 {
				if k := rng.Intn(1 << 30); !m.Put(k, k) {
					keys = append(keys, k)
				}
			}
			m.Compact()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < puts; j++ {
					m.Put(keys[rng.Intn(int64(len(keys)))], int64(i))
				}
				b.StartTimer()
				m.Compact()
			}
		})
	}
}

// BenchmarkE12Allocs — experiment E12 (allocation axis): allocator
// traffic of the update path at steady state, post-horizon recycling on
// vs off (DESIGN.md §10). One op is a full insert+delete pair on a fresh
// key with a Compact pass amortized over every batch, so pool supply
// tracks demand like a long-running churn. The allocs/op column is the
// result: the flat node layout costs 6 heap allocations per pair
// (insert: 3 nodes + 1 info; delete: 1 node + 1 info) and node recycling
// returns 4 of them, a ≥50% reduction that the pool-hit metric makes
// attributable. Run with -benchmem.
func BenchmarkE12Allocs(b *testing.B) {
	const keys = 1 << 12
	const batch = 512 // updates per Compact pass
	for _, pooling := range []bool{true, false} {
		name := "pool-off"
		if pooling {
			name = "pool-on"
		}
		b.Run("churn-pair/"+name, func(b *testing.B) {
			tr := core.New()
			tr.SetPooling(pooling)
			rng := workload.NewRNG(37)
			for i := 0; i < keys/2; i++ {
				tr.Insert(rng.Intn(keys))
			}
			// Warm the pools to steady state before measuring.
			for i := int64(0); i < 2*batch; i++ {
				k := keys + i%keys
				tr.Insert(k)
				tr.Delete(k)
				if i%batch == batch-1 {
					tr.Compact()
				}
			}
			tr.ResetStats()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys + int64(i)%keys // fresh key: both halves succeed
				tr.Insert(k)
				tr.Delete(k)
				if i%batch == batch-1 {
					tr.Compact()
				}
			}
			b.StopTimer()
			st := tr.Stats()
			b.ReportMetric(float64(st.PoolNodeHits)/float64(b.N), "node-hits/op")
			b.ReportMetric(float64(st.PoolInfoHits)/float64(b.N), "info-hits/op")
		})
	}
}

// BenchmarkE14RebalanceZipf — experiment E14 (single point): clustered
// zipfian point ops (skew 1.2, hot keys contiguous at the bottom of the
// key space) on the static 8-shard set vs the same set with the online
// rebalancer. Static range sharding concentrates nearly all of this
// workload on shard 0; the rebalancer splits the hot shard at its median
// until the heat spreads. The final shard count is reported as a metric.
func BenchmarkE14RebalanceZipf(b *testing.B) {
	const keys = 1 << 18
	for _, tgt := range []string{harness.ShardedTarget(8), harness.ShardedAutoTarget(8)} {
		b.Run(tgt, func(b *testing.B) {
			inst := prefilledRange(b, tgt, keys)
			var seed atomic.Uint64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := workload.NewRNG(seed.Add(1))
				z := workload.NewZipfClustered(0, keys, 1.2)
				for pb.Next() {
					k := z.Key(rng)
					switch rng.Intn(5) {
					case 0, 1:
						inst.Insert(k)
					case 2, 3:
						inst.Delete(k)
					default:
						inst.Contains(k)
					}
				}
			})
			b.StopTimer()
			if c, ok := inst.(io.Closer); ok {
				c.Close()
			}
			if n, ok := harness.ShardCount(inst); ok {
				b.ReportMetric(float64(n), "shards")
			}
		})
	}
}

// BenchmarkE15WireOps — experiment E15 (single point): point operations
// over loopback TCP against the serving layer fronting the 8-shard map,
// one connection, depth-16 pipeline. Measures the full wire cost per
// operation — encode, socket, server handle, reply — which the in-process
// E1 numbers can be compared against; cmd/benchbst -experiment E15 runs
// the full conns × pipeline sweep.
func BenchmarkE15WireOps(b *testing.B) {
	const keys = 1 << 16
	m := bst.NewShardedRange(0, keys-1, 8)
	srv, err := server.Start(server.Config{Addr: "127.0.0.1:0", Store: m})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	}()
	c, err := wire.Dial(srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	rng := workload.NewRNG(7)
	const depth = 16
	inflight := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := wire.OpInsert
		switch i % 3 {
		case 1:
			op = wire.OpDelete
		case 2:
			op = wire.OpContains
		}
		if err := c.Send(wire.Request{Op: op, A: rng.Intn(keys)}); err != nil {
			b.Fatal(err)
		}
		if inflight++; inflight == depth {
			if _, err := c.Recv(); err != nil {
				b.Fatal(err)
			}
			inflight--
		}
	}
	for ; inflight > 0; inflight-- {
		if _, err := c.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
}

// BenchmarkE16OpenLoop — experiment E16 (single point): an open-loop
// Poisson run against the serving layer at a fixed offered rate, with
// latency measured from the intended send time (coordinated omission
// accounted for). Each iteration is one ~250ms run; p99 of the
// intended-start latency is reported as a metric alongside ns/op.
// cmd/benchbst -experiment E16 runs the full offered-load sweep.
func BenchmarkE16OpenLoop(b *testing.B) {
	const keys = 1 << 14
	m := bst.NewShardedRange(0, keys-1, 8)
	srv, err := server.Start(server.Config{Addr: "127.0.0.1:0", Store: m})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	}()

	var ops uint64
	var lastP99 int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := loadgen.Run(loadgen.Config{
			Addr:     srv.Addr().String(),
			Conns:    2,
			Duration: 250 * time.Millisecond,
			KeyRange: keys,
			Prefill:  keys / 4,
			Mix:      workload.Mix{InsertPct: 25, DeletePct: 25},
			Seed:     uint64(11 + i),
			Rate:     20000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.TransportErrs > 0 {
			b.Fatalf("transport failures: %v", res.TransportErr)
		}
		if res.TotalOps() == 0 {
			b.Fatal("open-loop run completed zero ops")
		}
		ops += res.TotalOps()
		lastP99 = res.PointLat.Percentile(99)
	}
	b.StopTimer()
	b.ReportMetric(float64(ops)/float64(b.N), "ops/run")
	b.ReportMetric(float64(lastP99), "p99-intended-ns")
}

// BenchmarkE18Emit — experiment E18 (micro half): cost of one flight-
// recorder Emit on the disabled path (must collapse to a single atomic
// load) and the enabled path (ring write, which must stay allocation-
// free — -benchmem asserts 0 allocs/op for both).
func BenchmarkE18Emit(b *testing.B) {
	for _, enabled := range []bool{false, true} {
		name := "disabled"
		if enabled {
			name = "enabled"
		}
		b.Run(name, func(b *testing.B) {
			r := obs.NewRecorder(obs.DefaultCapacity)
			r.SetEnabled(enabled)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Emit(obs.EventCompact, obs.KindNone, -1, uint64(i), 1, 2, 3)
			}
		})
	}
}

// BenchmarkE18ObservedServing — experiment E18 (macro half, single
// point): the BenchmarkE15WireOps loop with full observability armed —
// recorder on, slow-op sampling at 100µs, metrics listener up. Compare
// ns/op against BenchmarkE15WireOps for the instrumentation delta;
// cmd/benchbst -experiment E18 runs the three-config comparison with a
// live scraper.
func BenchmarkE18ObservedServing(b *testing.B) {
	prior := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(prior)
	const keys = 1 << 16
	m := bst.NewShardedRange(0, keys-1, 8)
	srv, err := server.Start(server.Config{
		Addr:        "127.0.0.1:0",
		MetricsAddr: "127.0.0.1:0",
		Store:       m,
		SlowOp:      100 * time.Microsecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	}()
	c, err := wire.Dial(srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	rng := workload.NewRNG(7)
	const depth = 16
	inflight := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := wire.OpInsert
		switch i % 3 {
		case 1:
			op = wire.OpDelete
		case 2:
			op = wire.OpContains
		}
		if err := c.Send(wire.Request{Op: op, A: rng.Intn(keys)}); err != nil {
			b.Fatal(err)
		}
		if inflight++; inflight == depth {
			if _, err := c.Recv(); err != nil {
				b.Fatal(err)
			}
			inflight--
		}
	}
	for ; inflight > 0; inflight-- {
		if _, err := c.Recv(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(obs.Default.Seq()), "events")
}

func itoa(v int64) string {
	switch {
	case v >= 1<<20 && v%(1<<20) == 0:
		return itoa(v/(1<<20)) + "Mi"
	case v >= 1<<10 && v%(1<<10) == 0:
		return itoa(v/(1<<10)) + "Ki"
	}
	// small numbers
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if i == len(buf) {
		return "0"
	}
	return string(buf[i:])
}

// TestBenchSanity keeps `go test ./...` exercising this file's helpers
// cheaply (the benchmarks themselves only run under -bench).
func TestBenchSanity(t *testing.T) {
	if got := itoa(1 << 16); got != "64Ki" {
		t.Fatalf("itoa(65536) = %q", got)
	}
	if got := itoa(1 << 20); got != "1Mi" {
		t.Fatalf("itoa(1Mi) = %q", got)
	}
	if got := itoa(10000); got != "10000" {
		t.Fatalf("itoa(10000) = %q", got)
	}
	inst := prefilled(t, harness.TargetPNBBST, 1<<10)
	if n := inst.Scan(0, 1<<10-1); n != 1<<9 {
		t.Fatalf("prefill = %d keys, want %d", n, 1<<9)
	}
	// The sharded instances see the same prefill stream as the single
	// tree, so every sweep member must agree on every scan count.
	base := prefilledRange(t, harness.TargetPNBBST, 1<<10)
	for _, tgt := range shardedSweep[1:] {
		sh := prefilledRange(t, tgt, 1<<10)
		for _, r := range [][2]int64{{0, 1<<10 - 1}, {100, 700}, {255, 256}} {
			if got, want := sh.Scan(r[0], r[1]), base.Scan(r[0], r[1]); got != want {
				t.Fatalf("%s: Scan(%d,%d) = %d, want %d", tgt, r[0], r[1], got, want)
			}
		}
	}
}
