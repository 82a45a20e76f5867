package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"blemesh/internal/metrics"
	"blemesh/internal/sim"
)

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// pool sums the simulated output of a run's instances; the result's
// digest is unset.
func pool(outs []output) output {
	p := output{rtts: &metrics.CDF{}}
	for _, o := range outs {
		p.pdr.Sent += o.pdr.Sent
		p.pdr.Delivered += o.pdr.Delivered
		p.rtts.Merge(o.rtts)
		p.bufferDrops += o.bufferDrops
		p.reconnects += o.reconnects
		p.reboots += o.reboots
		p.events += o.events
		p.span += o.span
	}
	return p
}

// minSetupBuilds is the fewest builds a run takes set-up time from.
const minSetupBuilds = 9

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// timed measures the end-to-end metrics. Every instance runs once; while
// time remains, instances run again in order, which both steadies the
// host-time figures and checks that an instance reproduces its output.
// Host time, memory and end heap are taken per instance as the median of
// its runs, then combined over instances; set-up is the median of every
// build in the run.
func timed(w *workload, seed int64, budget time.Duration) (*result, error) {
	insts := instances(w, seed)
	start := time.Now()
	res := &result{}
	first := make([]*instanceResult, len(insts))
	hosts := make([][]float64, len(insts))
	mems := make([][]float64, len(insts))
	heaps := make([][]float64, len(insts))
	var setups []float64
	runs := 0
	record := func(i int, r *instanceResult) {
		runs++
		hosts[i] = append(hosts[i], r.host.Seconds())
		mems[i] = append(mems[i], r.memPerNode)
		heaps[i] = append(heaps[i], r.heapEnd/1e6)
		setups = append(setups, r.setup.Seconds())
	}
	for i, s := range insts {
		res.attempted++
		r, err := runInstance(w, s, nil, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			res.failed++
			continue
		}
		first[i] = r
		record(i, r)
	}
	if res.failed == len(insts) {
		return nil, fmt.Errorf("%s: every instance failed", w.name)
	}
	for i := 0; ; i = (i + 1) % len(insts) {
		if first[i] == nil {
			continue
		}
		next := first[i].setup + first[i].host
		if time.Since(start)+next > budget {
			break
		}
		res.attempted++
		r, err := runInstance(w, insts[i], nil, nil)
		if err != nil || r.out.digest != first[i].out.digest {
			fmt.Fprintf(os.Stderr, "perfbench: %s instance %v did not reproduce its output (err %v)\n",
				w.name, insts[i], err)
			res.failed++
			continue
		}
		record(i, r)
	}

	// Small runs already build many times; a city run builds a few times
	// more so its set-up median has enough samples.
	for k := 0; len(setups) < minSetupBuilds; k = (k + 1) % len(insts) {
		b := buildInstance(w, insts[k], nil)
		setups = append(setups, b.setup.Seconds())
		mems[k] = append(mems[k], b.memPerNode)
		runtime.KeepAlive(b.nw)
	}

	var outs []output
	var hostSum float64
	var span sim.Duration
	var memPerInst, heapPerInst []float64
	for i, r := range first {
		if r == nil {
			continue
		}
		outs = append(outs, r.out)
		hostSum += median(hosts[i])
		span += r.out.span
		memPerInst = append(memPerInst, median(mems[i]))
		heapPerInst = append(heapPerInst, median(heaps[i]))
	}
	p := pool(outs)
	simRate := span.Seconds() / hostSum
	rttN := p.rtts.N()
	res.metrics = []metric{
		{"setup_s", median(setups), "s"},
		{"sim_rate", simRate, "sim_s/s"},
		{"mem_bytes_per_node", mean(memPerInst), "B"},
		{"heap_end_mb", mean(heapPerInst), "MB"},
		{"coap_pdr", p.pdr.Rate(), "ratio"},
		{"rtt_p50_ms", 1e3 * p.rtts.Quantile(0.5), "ms"},
		{"rtt_p99_ms", 1e3 * p.rtts.Quantile(0.99), "ms"},
	}
	samples := []string{
		fmt.Sprintf("%d builds", len(setups)),
		fmt.Sprintf("%.0f simulated s over %d instances, %d runs", span.Seconds(), len(outs), runs),
		fmt.Sprintf("mean over %d instances of %d builds", len(outs), len(setups)),
		fmt.Sprintf("mean over %d instances of %d runs", len(outs), runs),
		fmt.Sprintf("%d of %d requests delivered", p.pdr.Delivered, p.pdr.Sent),
		fmt.Sprintf("%d RTTs", rttN),
		fmt.Sprintf("%d RTTs, %d beyond", rttN, rttN/100),
	}
	fmt.Printf("workload %s, seed %d: %d instances, %d runs, %.1f s\n",
		w.name, seed, len(insts), res.attempted, time.Since(start).Seconds())
	for i, m := range res.metrics {
		fmt.Printf("  %-20s %14.6g %-8s %s\n", m.name, m.value, m.unit, samples[i])
	}
	fmt.Printf("  simulated output digest %s\n", runDigest(outs))
	ok := checkReference(w, p)
	res.correct = ok && res.failed == 0 && rttN > 0
	return res, nil
}
