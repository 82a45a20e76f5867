package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// outDir receives the traced run's spans and CPU profile, relative to the
// repository root the benchmark runs from.
const outDir = ".bench_build/perfbench"

// traced runs the workload's instances twice — untraced, then under spans
// and a CPU profile — and reports the per-layer split. The two passes must
// produce byte-identical simulated output.
func traced(w *workload, seed int64) (*result, error) {
	insts := instances(w, seed)
	res := &result{}

	var untracedHost time.Duration
	untraced := make([]*instanceResult, len(insts))
	for i, s := range insts {
		res.attempted++
		r, err := runInstance(w, s, nil, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			res.failed++
			continue
		}
		untraced[i] = r
		untracedHost += r.host
	}

	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	var counts layerCounts
	var sh *shape
	var tracedHost time.Duration
	var outs []output
	var serveRate float64
	for i, s := range insts {
		res.attempted++
		r, err := runInstance(w, s, tr, &counts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			res.failed++
			continue
		}
		if untraced[i] == nil || r.out.digest != untraced[i].out.digest {
			fmt.Fprintf(os.Stderr, "perfbench: %s instance %v: traced output differs from untraced\n", w.name, s)
			res.failed++
			continue
		}
		tracedHost += r.host
		outs = append(outs, r.out)
		serveRate += r.shape.serveRate
		if sh == nil {
			sh = &r.shape
		}
	}
	pprof.StopCPUProfile()
	if sh == nil {
		return nil, fmt.Errorf("%s: every instance failed", w.name)
	}
	// The CoAP probe runs at the busiest sink's rate averaged over the
	// instances: one instance's rate follows its own overload depth.
	sh.serveRate = serveRate / float64(len(outs))
	shares, samples, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}

	var ms []metric
	add := func(name string, v float64, unit string) { ms = append(ms, metric{name, v, unit}) }
	add("testbed.gen_s", tr.total("testbed.gen").Seconds(), "s")
	add("exp.build_s", tr.total("exp.build").Seconds(), "s")
	add("exp.formation_s", tr.total("exp.formation").Seconds(), "s")
	add("exp.traffic_s", tr.total("exp.traffic").Seconds(), "s")
	add("sim.ns_per_event", float64(untracedHost.Nanoseconds())/float64(counts.events), "ns")
	add("bench.trace_overhead", tracedHost.Seconds()/untracedHost.Seconds()-1, "ratio")
	ms = append(ms, counts.metrics()...)

	// Layer probes, each under its own span.
	type probe struct {
		name string
		run  func() (float64, error)
	}
	probes := []probe{
		{"sim.queue_ns_op", func() (float64, error) { return queueNsOp(*sh, capOps(counts.events, maxQueueOps)) }},
		{"phy.tx_ns_op", func() (float64, error) { return phyTxNsOp(*sh, capOps(counts.phyTX, maxPhyTX)) }},
		{"sixlo.iphc_ns_op", func() (float64, error) { return iphcNsOp(*sh, capOps(counts.ipSent, maxCodecOps)) }},
		{"ip6.udp_ns_op", func() (float64, error) { return udpNsOp(*sh, capOps(counts.ipSent, maxCodecOps)) }},
		{"coap.serve_ns_req", func() (float64, error) {
			v, n, err := serveNsReq(*sh)
			fmt.Printf("  coap.serve probe: %d requests at %.1f req/s over %v\n", n, sh.serveRate, sh.trafficSpan)
			return v, err
		}},
	}
	for _, d := range probes {
		res.attempted++
		id := tr.begin("probe."+d.name, "")
		v, err := d.run()
		tr.end(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			res.failed++
		}
		add(d.name, v, "ns")
	}
	for _, m := range append(append([]string(nil), modules...), "runtime", "other") {
		add("cpu_share."+m, shares[m], "share")
	}

	tr.finish()
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, fmt.Errorf("create output directory: %w", err)
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", w.name, seed))
	if err := tr.writeNDJSON(base + ".spans.ndjson"); err != nil {
		return nil, err
	}
	if err := os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return nil, fmt.Errorf("write CPU profile: %w", err)
	}

	fmt.Printf("workload %s, seed %d: traced run, %d instances, %d profile samples\n",
		w.name, seed, len(insts), samples)
	fmt.Printf("  untraced %.2f s, traced %.2f s host for formation and traffic\n",
		untracedHost.Seconds(), tracedHost.Seconds())
	for _, m := range ms {
		fmt.Printf("  %-28s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Printf("  spans: %s.spans.ndjson, profile: %s.cpu.pprof\n", base, base)
	fmt.Printf("  simulated output digest %s\n", runDigest(outs))
	ok := checkReference(w, pool(outs))
	res.correct = ok && res.failed == 0
	res.metrics = ms
	return res, nil
}
