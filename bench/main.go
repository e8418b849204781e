// Command bench is the repo's benchmark: four closed-loop workloads over
// the stack wire → server → persist → bst → shard.Set → core.Tree, each
// driven by the benchmark's own verifying client, with the seven
// end-to-end metrics on the metric run and the per-layer metrics on the
// traced run. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// defaultSeconds is how long a full run measures; BENCHMARK.json's
// run_seconds says the same.
const defaultSeconds = 20

func main() {
	workload := flag.String("workload", "all", "workload to run: wire-rtt, wire-pipe, wire-durable, lib-scan-churn, or all (one child process each)")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same operation streams")
	seconds := flag.Int("seconds", defaultSeconds, "length of the metric run's window in seconds; the traced run measures a window of half that, then the isolation loops")
	trace := flag.Int("trace", 0, "0: metric run, end-to-end metrics; 1: traced run, per-layer metrics and the span file")
	dir := flag.String("dir", ".bench_build", "scratch directory for WAL directories and span files")
	aa := flag.Int("aa", 0, "A/A check: run the suite this many times with seeds 1..N and compare the medians of the two halves")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 || *aa < 0 {
		flag.Usage()
		os.Exit(2)
	}

	switch {
	case *aa > 0:
		if err := runAA(*aa, *seconds, *dir); err != nil {
			fatal(err)
		}
	case *workload == "all":
		for _, sp := range specs {
			res, err := runChild(sp.name, *seed, *seconds, *trace, *dir, os.Stdout)
			if err != nil {
				fatal(err)
			}
			if !res.Correct {
				os.Exit(1)
			}
		}
	default:
		sp := specByName(*workload)
		if sp == nil {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		rep, err := runWorkload(runConfig{
			sp: sp, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
			traced: *trace == 1, dir: *dir, scale: 1,
		})
		if err != nil {
			fatal(err)
		}
		if err := rep.print(os.Stdout); err != nil {
			fatal(err)
		}
		if rep.FailedOps > 0 {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the full report, indented, and then the one-line result.
func (rep *report) print(w io.Writer) error {
	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	line, err := json.Marshal(resultLine{
		Correct: rep.FailedOps == 0, Attempted: rep.AttemptedOps, Failed: rep.FailedOps, Metrics: rep.Metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", full, line)
	return err
}
