package harness

import (
	"io"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestShardedAutoTargets: the auto-rebalancing family parses with the
// same canonical-only rule as the rest of the sharded families, keeps
// the families mutually exclusive, and runs end to end (with the
// background rebalancer stopped by Run).
func TestShardedAutoTargets(t *testing.T) {
	if got := ShardedAutoTarget(16); got != "sharded16-auto" {
		t.Fatalf("ShardedAutoTarget(16) = %q", got)
	}
	for name, want := range map[string]int{
		TargetShardedAuto: DefaultShards, "sharded1-auto": 1, "sharded16-auto": 16,
	} {
		n, ok := ParseShardedAutoTarget(name)
		if !ok || n != want {
			t.Fatalf("ParseShardedAutoTarget(%q) = %d,%v, want %d", name, n, ok, want)
		}
	}
	for _, bad := range []string{
		"sharded04-auto", "sharded+4-auto", "sharded-auto4", "sharded4auto",
		"sharded4-relaxed-auto", "sharded4-auto-relaxed", "sharded", "sharded4-relaxed",
	} {
		if n, ok := ParseShardedAutoTarget(bad); ok {
			t.Fatalf("ParseShardedAutoTarget(%q) accepted with n=%d", bad, n)
		}
	}
	for _, n := range []int{1, 2, 8, 64} {
		got, ok := ParseShardedAutoTarget(ShardedAutoTarget(n))
		if !ok || got != n {
			t.Fatalf("ShardedAutoTarget(%d) does not round-trip: got %d,%v", n, got, ok)
		}
	}
	// The families stay disjoint: the plain parser rejects auto names.
	if _, ok := ParseShardedTarget("sharded4-auto"); ok {
		t.Fatal("ParseShardedTarget accepted an auto name")
	}

	cfg := shortCfg(ShardedAutoTarget(4))
	res := Run(cfg)
	if res.TotalOps() == 0 || res.ScanKeys == 0 {
		t.Fatalf("auto run: ops=%d scanKeys=%d", res.TotalOps(), res.ScanKeys)
	}
	if _, ok := PNBStats(res.Inst); !ok {
		t.Fatal("auto instance: PNBStats unavailable")
	}
	if _, _, ok := Migrations(res.Inst); !ok {
		t.Fatal("auto instance: Migrations unavailable")
	}
	if n, ok := ShardCount(res.Inst); !ok || n < 1 {
		t.Fatalf("auto instance: ShardCount = %d,%v", n, ok)
	}
	// Run already closed the instance; closing again is harmless and the
	// instance stays readable.
	if c, ok := res.Inst.(io.Closer); !ok {
		t.Fatal("auto instance does not implement io.Closer")
	} else if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if !res.Inst.Insert(1) && !res.Inst.Contains(1) {
		t.Fatal("auto instance unusable after Close")
	}
}

// TestShardedAutoRebalancesUnderSkew: driven through the harness with a
// clustered-zipf key stream, the auto target actually migrates while the
// static target cannot.
func TestShardedAutoRebalancesUnderSkew(t *testing.T) {
	cfg := Config{
		Target:        ShardedAutoTarget(2),
		Threads:       4,
		Duration:      400 * time.Millisecond,
		KeyRange:      1 << 15,
		Prefill:       -1,
		Mix:           workload.Mix{InsertPct: 40, DeletePct: 40},
		ZipfSkew:      1.3,
		ZipfClustered: true,
		Seed:          3,
	}
	res := Run(cfg)
	splits, _, ok := Migrations(res.Inst)
	if !ok || splits == 0 {
		t.Fatalf("skewed auto run performed %d splits (ok=%v)", splits, ok)
	}
	if n, _ := ShardCount(res.Inst); n <= 2 {
		t.Fatalf("shard count %d after skewed auto run, want > 2", n)
	}
}

// TestZipfClusteredKeyGen: the clustered generator concentrates mass at
// the bottom of the interval (the scattered one does not), which is the
// whole point of Config.ZipfClustered.
func TestZipfClusteredKeyGen(t *testing.T) {
	const n = 1 << 16
	rng := workload.NewRNG(5)
	z := workload.NewZipfClustered(0, n, 1.2)
	low := 0
	for i := 0; i < 10_000; i++ {
		if z.Key(rng) < n/16 {
			low++
		}
	}
	if low < 7_000 {
		t.Fatalf("clustered zipf put only %d/10000 draws in the bottom 1/16 of the range", low)
	}
}
