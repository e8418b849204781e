package scenario

import (
	"context"
	"testing"
	"time"

	"repro/bst"
	"repro/internal/harness"
	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/internal/workload"
)

func TestScenarioTable(t *testing.T) {
	all := All()
	if len(all) != 6 {
		t.Fatalf("%d scenarios, want 6", len(all))
	}
	seen := map[string]bool{}
	for _, s := range all {
		if seen[s.Name] {
			t.Fatalf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		s.Mix.Validate()
		if s.Title == "" {
			t.Fatalf("%s has no title", s.Name)
		}
		if s.PrefillPct < 0 || s.PrefillPct > 100 {
			t.Fatalf("%s prefill %d%%", s.Name, s.PrefillPct)
		}
		got, ok := ByName(s.Name)
		if !ok || got.Name != s.Name {
			t.Fatalf("ByName(%q) failed", s.Name)
		}
	}
	for _, name := range []string{"ycsb-a", "ycsb-b", "ycsb-c", "ycsb-d", "ycsb-e", "ycsb-f"} {
		if !seen[name] {
			t.Fatalf("scenario %q missing", name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName accepted an unknown name")
	}
	if len(Names()) != 6 {
		t.Fatalf("Names() = %v", Names())
	}
}

// TestScenarioStreamsDeterministic: the same (scenario, keyRange, seed,
// conn) always yields the same stream.
func TestScenarioStreamsDeterministic(t *testing.T) {
	for _, s := range All() {
		fa, fb := s.StreamFor(1<<12, 42), s.StreamFor(1<<12, 42)
		for conn := 0; conn < 2; conn++ {
			a, b := fa(conn), fb(conn)
			for i := 0; i < 5000; i++ {
				if a.Next() != b.Next() {
					t.Fatalf("%s conn %d: stream diverged at op %d", s.Name, conn, i)
				}
			}
		}
	}
}

// TestScenarioHarnessRuns drives every scenario in-process briefly and
// checks its signature shows up: scans for ycsb-e, RMW for ycsb-f, TTL
// expiries (deletes despite DeletePct 0) and drift for ycsb-d.
func TestScenarioHarnessRuns(t *testing.T) {
	const keyRange = 2048
	for _, s := range All() {
		cfg := s.HarnessConfig(harness.ShardedTarget(4), keyRange, 7)
		cfg.Threads = 2
		cfg.Duration = 30 * time.Millisecond
		res := harness.Run(cfg)
		// TTL expiries start only once a stream has issued keyRange ops,
		// which a 30 ms window may not reach when the run is slowed (the
		// race detector): ycsb-d doubles its window until deletes appear
		// and fails only once the next window would exceed 4 s (the last
		// window is 3.84 s, about 7.7 s in all).
		for s.Name == "ycsb-d" && res.Ops[workload.OpDelete] == 0 && cfg.Duration*2 <= 4*time.Second {
			cfg.Duration *= 2
			res = harness.Run(cfg)
		}
		if res.TotalOps() == 0 {
			t.Fatalf("%s: zero ops", s.Name)
		}
		switch s.Name {
		case "ycsb-d":
			if res.Ops[workload.OpDelete] == 0 {
				t.Fatalf("%s: no TTL expiries (deletes) despite DeletePct=0", s.Name)
			}
		case "ycsb-e":
			if res.Ops[workload.OpScan] == 0 || res.ScanKeys == 0 {
				t.Fatalf("%s: scans=%d scanKeys=%d", s.Name, res.Ops[workload.OpScan], res.ScanKeys)
			}
		case "ycsb-f":
			if res.Ops[workload.OpRMW] == 0 {
				t.Fatalf("%s: no RMW ops", s.Name)
			}
		}
	}
}

// TestScenarioWireRuns drives the two most structurally demanding
// scenarios (drift+TTL, RMW) over the wire and checks the same
// signatures arrive through the protocol.
func TestScenarioWireRuns(t *testing.T) {
	const keyRange = 1024
	m := bst.NewShardedRange(0, keyRange-1, 4)
	srv, err := server.Start(server.Config{Addr: "127.0.0.1:0", Store: m})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck
	}()

	for _, name := range []string{"ycsb-d", "ycsb-f"} {
		s, ok := ByName(name)
		if !ok {
			t.Fatal(name)
		}
		cfg := s.LoadgenConfig(srv.Addr().String(), keyRange, 3)
		cfg.Conns = 2
		cfg.Pipeline = 8
		cfg.Duration = 120 * time.Millisecond
		res, err := loadgen.Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.TransportErrs != 0 {
			t.Fatalf("%s: transport failures: %v", name, res.TransportErr)
		}
		if res.Errors != 0 {
			t.Fatalf("%s: %d server errors", name, res.Errors)
		}
		if res.TotalOps() == 0 {
			t.Fatalf("%s: zero ops", name)
		}
		switch name {
		case "ycsb-d":
			if res.Ops[workload.OpDelete] == 0 {
				t.Fatalf("%s: no TTL expiries over the wire", name)
			}
		case "ycsb-f":
			if res.Ops[workload.OpRMW] == 0 {
				t.Fatalf("%s: no RMW ops over the wire", name)
			}
		}
	}
}
