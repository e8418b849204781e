// Command benchbst regenerates the evaluation of the PNB-BST
// reproduction (experiments E1..E18, see DESIGN.md §4 and
// EXPERIMENTS.md), and runs one-off workloads against a chosen
// implementation.
//
// Usage:
//
//	benchbst -list
//	benchbst -experiment E1 [-duration 2s] [-threads 8] [-csv]
//	benchbst -experiment E12            # memory under churn, pruning on/off
//	benchbst -experiment E13            # atomic cross-shard scans vs a stitched scan
//	benchbst -experiment E14            # online shard rebalancing under zipf skew
//	benchbst -experiment E15            # network serving layer over real TCP
//	benchbst -all -quick
//	benchbst -impl sharded -shards 16 [-keys 1048576] [-insert 25 -delete 25 -scan 10 -scanwidth 100]
//	benchbst -impl sharded -shards 8 -rebalance [-zipf 1.2]   # online splits/merges under load
//
// With -all every experiment runs in order. -quick shrinks key ranges
// and durations for a fast smoke pass; published numbers should use the
// defaults (or longer -duration) on an otherwise idle machine.
//
// With -impl a single harness run is executed against the named
// implementation (any harness target: pnbbst, nbbst, lockbst, skiplist,
// snapcollector, sharded, sharded-auto). The -impl/-shards/-rebalance/
// -zipf cluster and its resolution rules are shared with cmd/stress and
// cmd/bstserver (harness.TargetFlags): -shards selects the shard count
// of a sharded family, -rebalance runs a background load-driven
// rebalancer, and -zipf draws point-op keys from a clustered zipfian
// distribution with the given skew — the spatially concentrated
// workload rebalancing exists for.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/harness"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list experiments and exit")
		expID    = flag.String("experiment", "", "experiment id to run (E1..E18)")
		all      = flag.Bool("all", false, "run every experiment")
		quick    = flag.Bool("quick", false, "smoke-scale: short durations, small key ranges")
		duration = flag.Duration("duration", 2*time.Second, "measurement window per data point")
		threads  = flag.Int("threads", runtime.GOMAXPROCS(0), "top of the thread sweep")
		seed     = flag.Uint64("seed", 42, "base PRNG seed")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		keys     = flag.Int64("keys", 1<<20, "key-space size (with -impl)")
	)
	target := harness.RegisterTargetFlags(flag.CommandLine, "", true)
	mixFlags := harness.RegisterMixFlags(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	if target.Impl != "" {
		for _, conflict := range []struct {
			set  bool
			name string
		}{
			{*all, "-all"}, {*expID != "", "-experiment"}, {*quick, "-quick"}, {*csv, "-csv"},
		} {
			if conflict.set {
				fmt.Fprintf(os.Stderr, "%s does not apply to a one-off -impl run\n", conflict.name)
				os.Exit(2)
			}
		}
		name, err := target.Resolve(*keys)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		mix, err := mixFlags.Mix()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		res := harness.Run(harness.Config{
			Target:        name,
			Threads:       *threads,
			Duration:      *duration,
			KeyRange:      *keys,
			Prefill:       -1,
			Mix:           mix,
			ZipfSkew:      target.Zipf(),
			ZipfClustered: target.Zipf() > 1,
			Seed:          *seed,
			SampleEvery:   64,
		})
		fmt.Println(res)
		fmt.Printf("mem: allocs/op=%.2f gc=%d gcPause=%v\n",
			res.AllocsPerOp, res.NumGC, time.Duration(res.GCPauseNs))
		if st, ok := harness.PNBStats(res.Inst); ok {
			fmt.Printf("stats: helps=%d handshakeAborts=%d scans=%d retries=%d/%d/%d\n",
				st.Helps, st.HandshakeAborts, st.Scans,
				st.RetriesInsert, st.RetriesDelete, st.RetriesFind)
			if st.PoolNodePuts+st.PoolNodeHits > 0 {
				fmt.Printf("pool: nodeHits=%d nodePuts=%d infoHits=%d infoPuts=%d\n",
					st.PoolNodeHits, st.PoolNodePuts, st.PoolInfoHits, st.PoolInfoPuts)
			}
		}
		if splits, merges, ok := harness.Migrations(res.Inst); ok && (splits+merges > 0 || target.Rebalance) {
			count, _ := harness.ShardCount(res.Inst)
			fmt.Printf("rebalance: shards=%d splits=%d merges=%d\n", count, splits, merges)
		}
		return
	}

	opts := experiments.Options{
		Duration:   *duration,
		MaxThreads: *threads,
		Seed:       *seed,
		Quick:      *quick,
		CSV:        *csv,
		Out:        os.Stdout,
	}
	if *quick && !harness.FlagWasSet(flag.CommandLine, "duration") {
		opts.Duration = 200 * time.Millisecond
	}

	switch {
	case *all:
		for _, e := range experiments.All() {
			fmt.Printf("\n### %s — %s\n", e.ID, e.Title)
			e.Run(opts)
		}
	case *expID != "":
		e, err := experiments.ByID(*expID)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("\n### %s — %s\n", e.ID, e.Title)
		e.Run(opts)
	default:
		fmt.Fprintln(os.Stderr, "nothing to do: pass -experiment <id>, -all, or -list")
		flag.Usage()
		os.Exit(2)
	}
}
