package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

// mayBeZero lists per-layer metrics that a short quiet window
// legitimately reports as zero: counts of rare events.
var mayBeZero = map[string]bool{
	"core.helps_per_kop": true, "core.handshake_aborts_per_kop": true, "core.horizon_retries_per_kop": true,
	"core.pool_hit_ratio": true, "proc.gc_cycles": true, "proc.gc_pause_ms": true,
}

// noPersistZero lists the metrics of the WAL over the window, which are
// zero on the workloads that have no persist layer.
var noPersistZero = map[string]bool{"persist.ops_per_fsync": true, "persist.fsyncs_per_s": true}

// mayBeNegative lists the two metrics that are differences of two
// measurements and so can fall below zero by noise.
var mayBeNegative = map[string]bool{"shard.route_ns": true, "trace.overhead_pct": true}

// TestSmoke runs every workload for one second as the metric run, and all
// but wire-rtt (whose path is wire-pipe's at pipeline 1) as the traced
// run — a window of half a second, then tiny isolation loops — and checks
// the shape of what comes out: the result line parses, every named metric is
// there with its unit, finite and positive, and no operation failed. The
// numbers themselves are not gated.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, sp := range specs {
		for _, traced := range []bool{false, true} {
			name, defs := sp.name+"/metric-run", endToEnd
			if traced {
				if sp.name == "wire-rtt" {
					continue
				}
				name, defs = sp.name+"/traced-run", perLayer
			}
			t.Run(name, func(t *testing.T) {
				rep, err := runWorkload(runConfig{sp: sp, seed: 1, seconds: time.Second, traced: traced, dir: dir, scale: 0.02})
				if err != nil {
					t.Fatal(err)
				}
				if rep.FailedOps != 0 || rep.AttemptedOps == 0 {
					t.Fatalf("%d of %d operations failed: %s", rep.FailedOps, rep.AttemptedOps, rep.FirstFailure)
				}
				var out bytes.Buffer
				if err := rep.print(&out); err != nil {
					t.Fatal(err)
				}
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				var res resultLine
				dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("result line does not parse: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted != rep.AttemptedOps || len(res.Metrics) != len(defs) {
					t.Fatalf("result line %+v does not match the report (%d metrics wanted)", res, len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					zeroOK := mayBeZero[d.Name] || mayBeNegative[d.Name] || noPersistZero[d.Name] && !sp.durable
					switch {
					case !ok:
						t.Errorf("metric %s is missing", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s is %v", d.Name, m.Value)
					case m.Value < 0 && !mayBeNegative[d.Name], m.Value == 0 && !zeroOK:
						t.Errorf("metric %s is %v, want a positive value", d.Name, m.Value)
					}
				}
				if traced {
					if fi, err := os.Stat(rep.SpanFile); err != nil || fi.Size() == 0 {
						t.Errorf("span file %s: %v", rep.SpanFile, err)
					}
					if rep.Detail["trace.spans_joined"] == 0 {
						t.Error("no client.request span found its server.store_call child")
					}
				}
			})
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the root of the repository
// and the tables compiled into the program the same.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Paths) != 1 || decl.Paths[0] != "bench" || len(decl.Command) != 2 || decl.Command[1] != "bench/run.sh" {
		t.Errorf("command %v and paths %v do not name this directory", decl.Command, decl.Paths)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the program's default window is %d", decl.RunSeconds, defaultSeconds)
	}
	if len(decl.Workloads) != len(specs) {
		t.Fatalf("%d workloads declared, %d compiled in", len(decl.Workloads), len(specs))
	}
	for i, w := range decl.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why || len(w.Why) > 200 {
			t.Errorf("workload %d is declared as %q (%q), compiled in as %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics declared, %d compiled in", len(got), kind, len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d is declared as %+v, compiled in as %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", decl.EndToEnd, endToEnd)
	same("per_layer", decl.PerLayer, perLayer)
}
