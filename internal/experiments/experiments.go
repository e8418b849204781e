// Package experiments defines the reproduction's evaluation suite
// (experiments E1..E18 of DESIGN.md §4). Each experiment is a function
// that runs a parameter sweep through the harness and renders the table
// or figure-series the corresponding claim calls for. cmd/benchbst is a
// thin CLI over this package; bench_test.go exercises single
// representative points of each experiment under `go test -bench`.
package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/harness"
)

// Options scale an experiment run.
type Options struct {
	Duration   time.Duration // measurement window per data point
	MaxThreads int           // top of the thread sweep (powers of two from 1)
	Seed       uint64
	Quick      bool      // shrink key ranges for smoke runs
	CSV        bool      // emit CSV instead of aligned tables
	Out        io.Writer // destination for rendered tables
}

// DefaultOptions returns the full-scale settings used for EXPERIMENTS.md.
func DefaultOptions(out io.Writer) Options {
	return Options{
		Duration:   2 * time.Second,
		MaxThreads: 8,
		Seed:       42,
		Out:        out,
	}
}

// QuickOptions returns a fast smoke-scale configuration.
func QuickOptions(out io.Writer) Options {
	return Options{
		Duration:   150 * time.Millisecond,
		MaxThreads: 4,
		Seed:       42,
		Quick:      true,
		Out:        out,
	}
}

// threadSweep returns 1,2,4,...,MaxThreads.
func (o Options) threadSweep() []int {
	var ts []int
	for t := 1; t <= o.MaxThreads; t *= 2 {
		ts = append(ts, t)
	}
	if len(ts) == 0 {
		ts = []int{1}
	}
	return ts
}

func (o Options) emit(t *harness.Table) {
	if o.CSV {
		t.RenderCSV(o.Out)
	} else {
		t.Render(o.Out)
	}
}

// scale shrinks a key range in quick mode.
func (o Options) scale(keys int64) int64 {
	if o.Quick && keys > 1<<14 {
		return 1 << 14
	}
	return keys
}

// Experiment is a named, documented runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options)
}

// All returns the experiments in order E1..E18.
func All() []Experiment {
	return []Experiment{
		{"E1", "Update-only throughput vs threads (Fig. E1)", E1UpdateOnly},
		{"E2", "Read-mostly throughput vs threads (Fig. E2)", E2ReadMostly},
		{"E3", "Mixed updates + range scans (Fig. E3)", E3MixedScans},
		{"E4", "Scan width sweep (Fig. E4)", E4ScanWidth},
		{"E5", "Persistence overhead PNB vs NB (Table E5)", E5Overhead},
		{"E6", "Scan latency under update load (Fig. E6)", E6ScanLatency},
		{"E7", "Memory: allocations per operation (Table E7)", E7Allocs},
		{"E8", "Disjoint-access parallelism (Fig. E8)", E8Disjoint},
		{"E9", "Handshaking: cost and necessity (Table E9)", E9Handshake},
		{"E10", "Snapshot + full iteration vs size (Fig. E10)", E10Snapshot},
		{"E11", "Sharded front end vs single tree (Fig. E11)", E11Sharding},
		{"E12", "Memory under churn: pruning on/off vs baselines (Table E12)", E12Memory},
		{"E13", "Atomic cross-shard scans: cost, and the anomalies of a stitched scan (E13)", E13Atomicity},
		{"E14", "Online shard rebalancing under zipf skew (E14)", E14Rebalance},
		{"E15", "Network serving layer: pipelined TCP throughput and wire-level scan atomicity (E15)", E15Serving},
		{"E16", "Open-loop load: latency vs offered rate, honest tails (E16)", E16OpenLoop},
		{"E17", "Durability: WAL cost and the wait-free checkpoint dip (E17)", E17Durability},
		{"E18", "Observability overhead: flight recorder, slow-op sampling, live scrape (E18)", E18Observability},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown id %q", id)
}
