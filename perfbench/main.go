// Command perfbench is the repository benchmark. It runs one named
// workload of the simulator from a seed and prints its metrics, ending
// with one JSON line:
//
//	perfbench --workload tree-overload --seed 7 --seconds 30 --trace 0
//
// With --trace 0 it measures the end-to-end metrics (set-up time,
// simulated seconds per host second, memory, and the simulated CoAP
// delivery ratio and RTT quantiles). With --trace 1 it runs the workload
// once untraced and once under spans and a CPU profile, checks that both
// produced the same simulated output, and reports the per-layer split.
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is the benchmark's verdict on one run.
type result struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
}

func (r *result) print() error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]val{}}
	for _, m := range r.metrics {
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func main() {
	name := flag.String("workload", "", "workload to run: tree-overload, city-10k or mesh-churn")
	seed := flag.Int64("seed", defaultSeed, "workload seed; it drives every instance's traffic phase")
	seconds := flag.Int("seconds", 30, "host seconds to spend measuring (every instance runs at least once)")
	traceFlag := flag.Int("trace", 0, "1 = traced run with the per-layer split instead of the end-to-end metrics")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	var res *result
	if *traceFlag == 1 {
		res, err = traced(w, *seed)
	} else {
		res, err = timed(w, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.print(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.correct {
		os.Exit(1)
	}
}
