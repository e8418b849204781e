package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/workload"
)

func shortCfg(target string) Config {
	return Config{
		Target:   target,
		Threads:  2,
		Duration: 50 * time.Millisecond,
		KeyRange: 1 << 10,
		Prefill:  -1,
		Mix:      workload.Mix{InsertPct: 25, DeletePct: 25, ScanPct: 5, ScanWidth: 50},
		Seed:     1,
	}
}

func TestRunAllTargets(t *testing.T) {
	for _, target := range Targets() {
		t.Run(target, func(t *testing.T) {
			res := Run(shortCfg(target))
			if res.TotalOps() == 0 {
				t.Fatal("no operations completed")
			}
			if res.Throughput <= 0 {
				t.Fatal("non-positive throughput")
			}
			if res.Ops[workload.OpScan] == 0 {
				t.Fatal("no scans ran despite 5% scan mix")
			}
			if res.ScanKeys == 0 {
				t.Fatal("scans observed no keys on a prefilled set")
			}
		})
	}
}

func TestRunWithLatencySampling(t *testing.T) {
	cfg := shortCfg(TargetPNBBST)
	cfg.SampleEvery = 8
	res := Run(cfg)
	if res.UpdateLat.Count() == 0 {
		t.Fatal("no update latencies sampled")
	}
	if res.ScanLat.Count() == 0 {
		t.Fatal("no scan latencies sampled")
	}
	if res.ScanLat.Max() <= 0 {
		t.Fatal("scan latency max not positive")
	}
}

func TestRunDisjointAndZipf(t *testing.T) {
	cfg := shortCfg(TargetPNBBST)
	cfg.Disjoint = true
	cfg.Mix = workload.Mix{InsertPct: 50, DeletePct: 50}
	if res := Run(cfg); res.TotalOps() == 0 {
		t.Fatal("disjoint run did nothing")
	}
	cfg = shortCfg(TargetSkipList)
	cfg.ZipfSkew = 1.3
	if res := Run(cfg); res.TotalOps() == 0 {
		t.Fatal("zipf run did nothing")
	}
}

func TestPNBStatsExposed(t *testing.T) {
	res := Run(shortCfg(TargetPNBBST))
	st, ok := PNBStats(res.Inst)
	if !ok {
		t.Fatal("PNBStats not available for pnbbst")
	}
	if st.Scans == 0 {
		t.Fatal("scan counter zero after scan workload")
	}
	if _, ok := PNBStats(Run(shortCfg(TargetNBBST)).Inst); ok {
		t.Fatal("PNBStats wrongly available for nbbst")
	}
}

func TestFactoryErrors(t *testing.T) {
	if _, err := Factory("nope"); err == nil {
		t.Fatal("unknown target accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewInstance on unknown target did not panic")
		}
	}()
	NewInstance("nope")
}

func TestPrefillReachesTarget(t *testing.T) {
	inst := NewInstance(TargetPNBBST)
	prefillInstance(inst, 1000, 400, 7)
	if got := inst.Scan(0, 999); got != 400 {
		t.Fatalf("prefill size = %d, want 400", got)
	}
	// Prefill larger than the key range is clamped.
	inst2 := NewInstance(TargetPNBBST)
	prefillInstance(inst2, 100, 1000, 7)
	if got := inst2.Scan(0, 99); got != 100 {
		t.Fatalf("clamped prefill = %d, want 100", got)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "a", "threads", "Mops")
	tb.AddRow("pnbbst", 4, 1.23456)
	tb.AddRow("nbbst", 32, 0.5)
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "1.235") {
		t.Fatalf("render output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	var csv bytes.Buffer
	tb.RenderCSV(&csv)
	if !strings.HasPrefix(csv.String(), "a,threads,Mops\n") {
		t.Fatalf("csv output:\n%s", csv.String())
	}
}

func TestResultString(t *testing.T) {
	res := Run(shortCfg(TargetPNBBST))
	s := res.String()
	if !strings.Contains(s, "pnbbst") || !strings.Contains(s, "Mops/s") {
		t.Fatalf("String() = %q", s)
	}
}

func TestShardedTargets(t *testing.T) {
	if got := ShardedTarget(16); got != "sharded16" {
		t.Fatalf("ShardedTarget(16) = %q", got)
	}
	for name, want := range map[string]int{
		TargetSharded: DefaultShards, "sharded1": 1, "sharded4": 4, "sharded16": 16,
	} {
		n, ok := ParseShardedTarget(name)
		if !ok || n != want {
			t.Fatalf("ParseShardedTarget(%q) = %d,%v, want %d", name, n, ok, want)
		}
	}
	// Only canonical spellings parse: every accepted name must round-trip
	// through ShardedTarget (or be the bare default), so decorated
	// decimals that strconv.Atoi would accept are rejected.
	for _, bad := range []string{
		"sharded0", "sharded-1", "shardedx", "shard4",
		"sharded+4", "sharded04", "sharded 4", "sharded4 ", "sharded007",
		"sharded0x10", "sharded1_0", "sharded4.0",
	} {
		if n, ok := ParseShardedTarget(bad); ok {
			t.Fatalf("ParseShardedTarget(%q) accepted with n=%d", bad, n)
		}
	}
	for _, n := range []int{1, 2, 8, 64, 1000} {
		got, ok := ParseShardedTarget(ShardedTarget(n))
		if !ok || got != n {
			t.Fatalf("ShardedTarget(%d) does not round-trip: got %d,%v", n, got, ok)
		}
	}
	// A sharded run over a focused key range completes ops and scans.
	for _, n := range []int{1, 4, 16} {
		res := Run(shortCfg(ShardedTarget(n)))
		if res.TotalOps() == 0 || res.ScanKeys == 0 {
			t.Fatalf("sharded%d run: ops=%d scanKeys=%d", n, res.TotalOps(), res.ScanKeys)
		}
		if _, ok := PNBStats(res.Inst); !ok {
			t.Fatalf("sharded%d: PNBStats unavailable", n)
		}
	}
}
