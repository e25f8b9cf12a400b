// Command perfbench is the repository's benchmark: four closed-loop
// workloads over the LAPSES simulator (kernel-recipe, grid-sweep,
// served-store, cluster-lease), each driven by one client from this one
// process, that measure end-to-end host time and, in a separate traced
// run, each layer's share of it. See README.md for the workloads, the
// metrics and which layer moves which end-to-end number.
//
// Usage (from the repository root, via run.sh, which builds it):
//
//	perfbench --workload kernel-recipe --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// The exit code is 0 only when every output check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "workload seed (pinned fingerprints exist for 1, the default, and 97, held out)")
	seconds := fs.Float64("seconds", 10, "length of the timed region, in seconds")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	pinsPath := fs.String("pins", "", "file of pinned fingerprints replacing the shipped pins.json")
	work := fs.String("work", ".bench_build/work", "scratch directory for stores and spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	p, err := loadPins(*pinsPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	b, err := newBench(*name, *seed, *seconds, *trace == 1, *work, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer b.close()
	rep, err := b.execute(w, p)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, msg := range b.problems {
		fmt.Fprintf(stderr, "perfbench: %s: CHECK FAILED: %s\n", *name, msg)
	}
	printSummary(stderr, rep)
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !rep.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

func printSummary(w io.Writer, rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.Metrics[n]
		fmt.Fprintf(w, "  %-26s %14.6g %s\n", n, m.Value, m.Unit)
	}
}
