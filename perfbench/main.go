// Command perfbench is the repository's end-to-end benchmark. It drives the
// EVA pipeline from outside through the public functions of internal/nn,
// internal/apps, internal/compile, internal/rewrite, internal/analysis,
// internal/execute, internal/ckks, internal/serve and eva, runs one named
// workload as a closed loop for a fixed time, checks every output against an
// independent reference, and prints one JSON result line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload cnn-infer --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate traced run
// that records a span around every call into a layer, writes the spans under
// .bench_build/spans/, and reports the per-layer metrics. README.md in
// this directory explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = fs.Int64("seed", 1, "seed for every generated input, weight and key")
		seconds  = fs.Float64("seconds", 10, "length of the timed phase in seconds")
		trace    = fs.Int("trace", 0, "0 = end-to-end metrics; 1 = traced run with per-layer metrics")
		spansDir = fs.String("spans", ".bench_build/spans", "directory the traced run writes its spans to")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	opts := runOptions{seed: *seed, seconds: *seconds, traced: *trace == 1, spansDir: *spansDir}
	rep, err := runWorkload(w, opts)
	if err != nil {
		return err
	}
	res := result{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "perfbench: workload=%s seed=%d seconds=%g trace=%d attempted=%d failed=%d\n",
		w.name, *seed, *seconds, *trace, rep.attempted, rep.failed)
	for _, note := range rep.notes {
		fmt.Fprintln(stdout, "perfbench:", note)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
