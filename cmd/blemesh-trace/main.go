// Command blemesh-trace runs a traced testbed experiment and inspects its
// flight-recorder output: filter the raw event log, export it (NDJSON/CSV),
// summarise drop causes and latency decomposition, and render per-packet
// per-hop latency waterfalls.
//
// Examples:
//
//	blemesh-trace -minutes 5                          # summary
//	blemesh-trace -kind ll-tx,ll-rx -node nrf52dk-1   # filtered event dump
//	blemesh-trace -id 5a0000000003c001                # one packet's life
//	blemesh-trace -waterfalls 3                       # slowest three packets
//	blemesh-trace -export ndjson -o trace.ndjson      # machine-readable trace
//	blemesh-trace -metrics csv                        # unified metrics snapshot
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"blemesh"
	"blemesh/internal/trace"
)

func main() {
	fs := flag.NewFlagSet("blemesh-trace", flag.ExitOnError)
	topoName := fs.String("topo", "tree", "topology: tree, line, or forest (4 isolated trees)")
	minutes := fs.Int("minutes", 5, "simulated minutes of traffic")
	seed := fs.Int64("seed", 1, "simulation seed")
	node := fs.String("node", "", "restrict the event dump to one node name")
	kinds := fs.String("kind", "", "comma-separated event kinds to dump (e.g. ll-tx,pkt-drop)")
	idHex := fs.String("id", "", "dump one packet's events and waterfall (hex provenance ID)")
	waterfalls := fs.Int("waterfalls", 0, "render the N slowest delivered packets")
	export := fs.String("export", "", "export the trace: ndjson or csv")
	metricsFmt := fs.String("metrics", "", "print the unified metrics snapshot: text, ndjson, or csv")
	out := fs.String("o", "", "write export/metrics output to a file instead of stdout")
	events := fs.Bool("events", false, "dump the (filtered) event log")
	sample := fs.Float64("sample", 0, "keep provenance spans for only this fraction of packets (0 or 1 = all)")
	exact := fs.Bool("exact", false, "use the exact CDF backend instead of the quantile sketch")
	streamPath := fs.String("stream", "", "stream periodic registry snapshots (NDJSON) to this file during the run")
	streamEvery := fs.Int("stream-every", 60, "streaming period in simulated seconds")
	shards := fs.Int("shards", 0, "worker lanes of the sharded conservative scheduler (0 = serial engine; output is identical for every value ≥ 1, and matches 0 only on single-site topologies)")
	_ = fs.Parse(os.Args[1:])

	blemesh.SetExactCDF(*exact)
	topo := blemesh.Tree()
	switch *topoName {
	case "tree":
	case "line":
		topo = blemesh.Line()
	case "forest":
		topo = blemesh.Forest(4)
	default:
		fatal(fmt.Errorf("unknown topology %q (tree, line, or forest)", *topoName))
	}
	cfg := blemesh.NetworkConfig{
		Seed:          *seed,
		Topology:      topo,
		JamChannel22:  true,
		Trace:         true,
		TraceCapacity: 1 << 20,
		TraceSample:   *sample,
		Shards:        *shards,
	}
	if *streamPath != "" {
		f, err := os.Create(*streamPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		cfg.StreamMetrics = f
		cfg.StreamEvery = blemesh.Duration(*streamEvery) * blemesh.Second
	}
	nw := blemesh.BuildNetwork(cfg)
	nw.WaitTopology(60 * blemesh.Second)
	nw.Run(10 * blemesh.Second)
	nw.StartTraffic(blemesh.TrafficConfig{})
	nw.Run(blemesh.Duration(*minutes) * blemesh.Minute)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}

	switch {
	case *export != "":
		evs := filtered(nw.Trace, *node, *kinds)
		var err error
		switch *export {
		case "ndjson":
			err = trace.WriteNDJSON(w, evs)
		case "csv":
			err = trace.WriteCSV(w, evs)
		default:
			fatal(fmt.Errorf("unknown export format %q (ndjson or csv)", *export))
		}
		if err != nil {
			fatal(err)
		}
	case *metricsFmt != "":
		var err error
		switch *metricsFmt {
		case "ndjson":
			err = nw.Registry.WriteNDJSON(w)
		case "csv":
			err = nw.Registry.WriteCSV(w)
		case "text":
			_, err = fmt.Fprint(w, nw.Registry.Render())
		default:
			fatal(fmt.Errorf("unknown metrics format %q (text, ndjson, or csv)", *metricsFmt))
		}
		if err != nil {
			fatal(err)
		}
	case *idHex != "":
		id, err := strconv.ParseUint(strings.TrimPrefix(*idHex, "0x"), 16, 64)
		if err != nil {
			fatal(fmt.Errorf("bad -id %q: %v", *idHex, err))
		}
		for _, e := range nw.Trace.EventsByID(id) {
			fmt.Fprintln(w, e)
		}
		for _, j := range nw.Journeys() {
			if j.ID == id {
				fmt.Fprint(w, j.Waterfall(60))
			}
		}
	case *events:
		evs := filtered(nw.Trace, *node, *kinds)
		for _, e := range evs {
			fmt.Fprintln(w, e)
		}
		fmt.Fprintf(w, "-- %d events shown (%d recorded) --\n", len(evs), nw.Trace.Total())
	default:
		summarize(w, nw, *waterfalls)
	}
}

// filtered applies the -node/-kind selectors to the retained events.
func filtered(l *blemesh.TraceLog, node, kinds string) []trace.Event {
	var ks []trace.Kind
	if kinds != "" {
		for _, name := range strings.Split(kinds, ",") {
			k, ok := trace.KindByName(strings.TrimSpace(name))
			if !ok {
				fatal(fmt.Errorf("unknown kind %q (known: %s)",
					name, strings.Join(trace.KindNames(), ", ")))
			}
			ks = append(ks, k)
		}
	}
	return l.Events(node, ks...)
}

// summarize prints the run's flight-recorder digest: event counts, the
// latency decomposition, a drop-cause table, and optional waterfalls.
func summarize(w *os.File, nw *blemesh.Network, nWaterfalls int) {
	pdr := nw.CoAPPDR()
	fmt.Fprintf(w, "run: %d trace events, CoAP PDR %.4f (%d/%d), %d connection losses\n",
		nw.Trace.Total(), pdr.Rate(), pdr.Delivered, pdr.Sent, nw.ConnLosses())
	if nw.Trace.Sampling() {
		fmt.Fprintf(w, "sampling: rate %.4f — %d packets kept, %d dropped\n",
			nw.Trace.SampleRate(), nw.Trace.PktKept(), nw.Trace.PktDropped())
	}

	fmt.Fprintln(w, "\nevents by kind:")
	byKind := nw.Trace.CountByKind()
	for k := 0; k < len(trace.KindNames()); k++ {
		if c := byKind[trace.Kind(k)]; c > 0 {
			fmt.Fprintf(w, "  %-14s %8d\n", trace.Kind(k), c)
		}
	}

	js := nw.Journeys()
	d := trace.Decompose(js)
	fmt.Fprintf(w, "\nlatency decomposition over %d delivered packets (%d hops):\n",
		d.Delivered, d.Hops)
	if d.Total > 0 {
		for _, c := range []struct {
			name string
			v    blemesh.Duration
		}{
			{"queueing", d.Queue},
			{"interval-wait", d.IntervalWait},
			{"airtime", d.Airtime},
			{"retrans/gap", d.Retrans},
		} {
			fmt.Fprintf(w, "  %-14s %10.3f s  %5.1f%%\n",
				c.name, c.v.Seconds(), 100*float64(c.v)/float64(d.Total))
		}
		fmt.Fprintf(w, "  %-14s %10.3f s\n", "total e2e", d.Total.Seconds())
	}

	if causes := nw.Trace.DropCauses(); len(causes) > 0 {
		fmt.Fprintln(w, "\ndrop causes:")
		keys := make([]string, 0, len(causes))
		for c := range causes {
			keys = append(keys, c)
		}
		sort.Strings(keys)
		for _, c := range keys {
			fmt.Fprintf(w, "  %-14s %8d\n", c, causes[c])
		}
	}

	if nWaterfalls > 0 {
		var delivered []*blemesh.Journey
		for _, j := range js {
			if j.Delivered {
				delivered = append(delivered, j)
			}
		}
		sort.Slice(delivered, func(i, k int) bool {
			if delivered[i].Latency() != delivered[k].Latency() {
				return delivered[i].Latency() > delivered[k].Latency()
			}
			return delivered[i].ID < delivered[k].ID
		})
		if nWaterfalls > len(delivered) {
			nWaterfalls = len(delivered)
		}
		fmt.Fprintf(w, "\nslowest %d delivered packets:\n", nWaterfalls)
		for _, j := range delivered[:nWaterfalls] {
			fmt.Fprint(w, j.Waterfall(60))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "blemesh-trace:", err)
	os.Exit(1)
}
