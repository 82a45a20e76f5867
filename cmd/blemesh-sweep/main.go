// Command blemesh-sweep runs the Appendix-B parameter sweep (Fig. 15): six
// producer intervals × ten connection-interval configurations, each
// repeated, fanned across a work-stealing worker pool, and prints the
// aggregated grid as CSV for plotting.
//
// Usage:
//
//	blemesh-sweep [-scale F] [-runs N] [-seed N] [-workers N]
//	              [-producers 100,1000] [-intervals "25,75,[65:85]"]
//	              [-topo tree|geo|city|floors] [-nodes N] [-range M]
//	              [-engine wheel|heap] [-shards N] [-progress]
//
// At -scale 1 -runs 5 this is the paper's full 300 simulated hours. The
// output is byte-identical for every -workers value; only wall-clock time
// changes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"blemesh"
	"blemesh/internal/prof"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	scale := flag.Float64("scale", 0.1, "duration scale (1.0 = 1h per run)")
	runs := flag.Int("runs", 1, "repetitions per configuration (paper: 5)")
	workers := flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
	engineName := flag.String("engine", "wheel", "sim event-queue engine: wheel or heap")
	shards := flag.Int("shards", 0, "worker lanes of the sharded conservative scheduler per run (0 = serial engine; output is identical for every value ≥ 1, and matches 0 only on single-site topologies)")
	topoName := flag.String("topo", "tree", "swept topology: tree (the paper's), geo, city, or floors (seeded generators)")
	nodes := flag.Int("nodes", 60, "node count for -topo geo")
	radioRange := flag.Float64("range", 0, "disk radio range in meters for generated topologies (0 = generator default)")
	producersFlag := flag.String("producers", "", "comma-separated producer intervals in ms (default: full Fig. 15 grid)")
	intervalsFlag := flag.String("intervals", "", "comma-separated interval config names, e.g. 25,75,[65:85] (default: all ten)")
	progress := flag.Bool("progress", false, "report per-run progress on stderr")
	exact := flag.Bool("exact", false, "use the exact CDF backend instead of the quantile sketch")
	pf := prof.Register(flag.CommandLine)
	flag.Parse()
	blemesh.SetExactCDF(*exact)
	defer pf.Start()()

	engine, err := blemesh.ParseEngine(*engineName)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	producers, err := parseProducers(*producersFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	configs, err := parseIntervals(*intervalsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	topo, err := parseTopo(*topoName, *seed, *nodes, *radioRange)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	sc := blemesh.SweepConfig{
		Options: blemesh.Options{
			Seed: *seed, Scale: *scale, Runs: *runs,
			Workers: *workers, Engine: engine, Shards: *shards,
		},
		Producers: producers,
		Configs:   configs,
		Topology:  topo,
		Registry:  blemesh.NewMetricsRegistry(),
	}
	if *progress {
		sc.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d runs", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	cells, err := blemesh.RunSweep(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *progress {
		fmt.Fprint(os.Stderr, sc.Registry.Render())
	}

	// Per-cell summary lines, then a CSV of the grid for external
	// plotting. SweepText emits keys in sorted order, so the bytes are
	// reproducible run-to-run and worker-count-to-worker-count.
	fmt.Print(blemesh.SweepText(cells))
}

// parseTopo resolves the -topo flag: the paper's tree, or one of the
// seeded city-scale generators (geo honours -nodes; all honour -range,
// 0 keeping the generator default). The zero-value Topology tells
// RunSweep to use its tree default.
func parseTopo(name string, seed int64, nodes int, radioRange float64) (blemesh.Topology, error) {
	switch name {
	case "", "tree":
		return blemesh.Topology{}, nil
	case "geo":
		return blemesh.RandomGeometric(blemesh.GeoConfig{
			Seed: seed, N: nodes, Range: radioRange}), nil
	case "city":
		return blemesh.CityBlocks(blemesh.CityConfig{
			Seed: seed, Range: radioRange}), nil
	case "floors":
		return blemesh.BuildingFloors(blemesh.FloorsConfig{
			Seed: seed, Range: radioRange}), nil
	}
	return blemesh.Topology{}, fmt.Errorf(
		"blemesh-sweep: unknown topology %q (tree, geo, city, or floors)", name)
}

// parseProducers parses "100,1000" (milliseconds) into durations; an empty
// flag selects the full Fig. 15 producer set.
func parseProducers(s string) ([]blemesh.Duration, error) {
	if s == "" {
		return nil, nil
	}
	var out []blemesh.Duration
	for _, f := range strings.Split(s, ",") {
		ms, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || ms <= 0 {
			return nil, fmt.Errorf("blemesh-sweep: bad producer interval %q (want ms)", f)
		}
		out = append(out, blemesh.Duration(ms)*blemesh.Millisecond)
	}
	return out, nil
}

// parseIntervals selects interval configurations from the Fig. 14 set by
// name; an empty flag selects all ten.
func parseIntervals(s string) ([]blemesh.IntervalConfig, error) {
	if s == "" {
		return nil, nil
	}
	all := blemesh.Fig14Configs()
	var out []blemesh.IntervalConfig
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, c := range all {
			if c.Name == name {
				out = append(out, c)
				found = true
				break
			}
		}
		if !found {
			names := make([]string, len(all))
			for i, c := range all {
				names[i] = c.Name
			}
			return nil, fmt.Errorf("blemesh-sweep: unknown interval config %q (have: %s)",
				name, strings.Join(names, " "))
		}
	}
	return out, nil
}
