package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"blemesh/internal/sim"
)

// brief shortens a workload to one instance and a short traffic span, so
// the test checks seed handling and determinism without the full run.
func brief(w *workload) *workload {
	b := *w
	b.instances = 1
	switch w.name {
	case "tree-overload":
		b.trafficSpan = 10 * sim.Second
	case "city-10k":
		b.trafficSpan = 2 * sim.Second
	case "mesh-churn":
		b.trafficSpan = 2 * sim.Minute // one reboot
	}
	return &b
}

func TestWorkloadsSeededAndDeterministic(t *testing.T) {
	for _, w := range workloads {
		w := brief(w)
		t.Run(w.name, func(t *testing.T) {
			var digests [][32]byte
			for _, seed := range []int64{defaultSeed, heldOutSeed, defaultSeed} {
				var c layerCounts
				r, err := runInstance(w, instances(w, seed)[0], nil, &c)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if r.out.pdr.Sent == 0 || r.out.pdr.Delivered == 0 || r.out.rtts.N() == 0 {
					t.Fatalf("seed %d: no traffic delivered: %+v", seed, r.out.pdr)
				}
				if c.events == 0 || c.phyTX == 0 || c.coapRequests == 0 {
					t.Fatalf("seed %d: layer counts missing: %+v", seed, c)
				}
				digests = append(digests, r.out.digest)
			}
			if digests[0] != digests[2] {
				t.Error("the same seed produced different simulated output")
			}
			if digests[0] == digests[1] {
				t.Error("the held-out seed produced the default seed's output: the seed does not reach the run")
			}
		})
	}
}

func TestMeshChurnReconnectsAfterReboot(t *testing.T) {
	w := brief(workloads[2])
	r, err := runInstance(w, instances(w, defaultSeed)[0], nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.out.reboots != 1 || r.out.reconnects < 1 {
		t.Fatalf("reboots %d, reconnects %d", r.out.reboots, r.out.reconnects)
	}
	if !checkReference(w, pool([]output{r.out})) {
		t.Fatal("mesh-churn left its reference band")
	}
}

func TestProbesRunAtWorkloadShape(t *testing.T) {
	w := brief(workloads[0])
	r, err := runInstance(w, instances(w, defaultSeed)[0], nil, &layerCounts{})
	if err != nil {
		t.Fatal(err)
	}
	sh := r.shape
	if sh.pending == 0 || sh.serveRate == 0 {
		t.Fatalf("shape not captured: %+v", sh)
	}
	for name, run := range map[string]func() (float64, error){
		"queue": func() (float64, error) { return queueNsOp(sh, 10_000) },
		"phy":   func() (float64, error) { return phyTxNsOp(sh, 1_000) },
		"iphc":  func() (float64, error) { return iphcNsOp(sh, 1_000) },
		"udp":   func() (float64, error) { return udpNsOp(sh, 1_000) },
		"coap": func() (float64, error) {
			v, _, err := serveNsReq(sh)
			return v, err
		},
	} {
		v, err := run()
		if err != nil || !(v > 0) {
			t.Errorf("%s probe: %v ns/op, err %v", name, v, err)
		}
	}
}

func TestCPUSharesDecodeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	w := brief(workloads[0])
	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		if _, err := runInstance(w, instances(w, defaultSeed)[0], nil, nil); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Skip("profile caught no samples")
	}
	sum := 0.0
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v: %v", sum, shares)
	}
}

func TestRepoModule(t *testing.T) {
	for fn, want := range map[string]string{
		"blemesh/internal/coap.(*Endpoint).gcSeen": "coap",
		"blemesh/internal/metrics/sketch.New":      "metrics",
		"blemesh/internal/sim.(*Sim).Run.func1":    "sim",
	} {
		if got, ok := repoModule(fn); !ok || got != want {
			t.Errorf("repoModule(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	if _, ok := repoModule("runtime.mapiternext"); ok {
		t.Error("runtime frame attributed to a repo module")
	}
}

func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	outer := tr.begin("outer", "")
	inner := tr.begin("inner", "")
	time.Sleep(2 * time.Millisecond)
	tr.end(inner)
	tr.end(outer)
	tr.finish()
	if len(tr.spans) != 2 || tr.spans[1].Parent != tr.spans[0].ID {
		t.Fatalf("spans %+v", tr.spans)
	}
	o, i := tr.spans[0], tr.spans[1]
	if o.Self != (o.End-o.Start)-(i.End-i.Start) || i.Self != i.End-i.Start {
		t.Fatalf("self times wrong: %+v", tr.spans)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", ""))
}
