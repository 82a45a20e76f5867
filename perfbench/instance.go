package main

import (
	"fmt"
	"runtime"
	"time"

	"blemesh/internal/exp"
	"blemesh/internal/fault"
	"blemesh/internal/sim"
	"blemesh/internal/testbed"
)

// instanceResult is one network instance's run: its simulated output plus
// what the host paid for it.
type instanceResult struct {
	out        output
	setup      time.Duration // topology generation + BuildNetwork
	host       time.Duration // formation + traffic
	memPerNode float64       // live heap retained by the build, per node
	heapEnd    float64       // live heap after the run, network still live
	shape      shape         // filled when the caller collects counts
}

// liveHeap returns the live heap after two collections: the first frees
// garbage, the second sweeps what finalizers released.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// built is an instance's network right after BuildNetwork.
type built struct {
	nw         *exp.Network
	topo       testbed.Topology
	stream     *countingWriter
	setup      time.Duration
	memPerNode float64
}

// buildInstance generates the topology and builds the network, timing both
// and measuring the live heap the build retains.
func buildInstance(w *workload, in instance, tr *tracer) built {
	var b built
	before := liveHeap()
	t0 := time.Now()
	sp := tr.begin("testbed.gen", "")
	b.topo = w.gen(in.net)
	tr.end(sp)
	if w.streaming {
		b.stream = &countingWriter{}
	}
	sp = tr.begin("exp.build", "")
	b.nw = exp.BuildNetwork(w.config(in.net, b.topo, b.stream))
	tr.end(sp)
	b.setup = time.Since(t0)
	if after := liveHeap(); after > before {
		b.memPerNode = float64(after-before) / float64(b.nw.NodeCount())
	}
	return b
}

// reseed restarts every site's random stream from the instance's traffic
// seed.
func reseed(nw *exp.Network, seed int64) {
	if nw.Sharded == nil {
		nw.Sim.Rand().Seed(seed)
		return
	}
	for i := 0; i < nw.Sharded.Domains(); i++ {
		nw.Sharded.Shard(i).Rand().Seed(mix(seed, i))
	}
}

// runInstance builds, forms and drives one network instance. Spans go to
// tr (nil records nothing); a non-nil counts also receives every layer's
// Stats() counters.
func runInstance(w *workload, in instance, tr *tracer, counts *layerCounts) (*instanceResult, error) {
	root := tr.begin("instance", in.String())
	defer tr.end(root)
	b := buildInstance(w, in, tr)
	nw, topo, stream := b.nw, b.topo, b.stream
	res := &instanceResult{setup: b.setup, memPerNode: b.memPerNode}

	t1 := time.Now()
	sp := tr.begin("exp.formation", "")
	err := w.form(nw)
	tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("%s %v: %w", w.name, in, err)
	}
	sp = tr.begin("exp.traffic", "")
	reseed(nw, in.traffic)
	nw.StartTraffic(w.traffic)
	if w.faults != nil {
		plan := w.faults(w.trafficSpan)
		if _, err := fault.Attach(nw.Sim, nw, plan); err != nil {
			tr.end(sp)
			return nil, fmt.Errorf("%s %v: attach faults: %w", w.name, in, err)
		}
		res.out.reboots = len(plan.Events)
	}
	nw.Run(w.trafficSpan)
	tr.end(sp)
	res.host = time.Since(t1)
	res.heapEnd = float64(liveHeap())

	o := &res.out
	o.pdr = nw.CoAPPDR()
	o.rtts = nw.MergedRTTs()
	o.bufferDrops = nw.BufferDrops()
	o.events = nw.Processed()
	o.span = nw.Now()
	for _, n := range nw.Nodes {
		if n != nil {
			o.reconnects += n.Statconn.Stats().Reconnects
		}
	}
	var streamBytes int64
	if stream != nil {
		streamBytes = stream.n
	}
	if o.digest, err = digestOf(nw, o, streamBytes); err != nil {
		return nil, err
	}
	if counts != nil {
		sp = tr.begin("bench.collect", "")
		addCounts(counts, nw, streamBytes)
		res.shape = shapeOf(nw, topo, w)
		tr.end(sp)
	}
	runtime.KeepAlive(nw)
	return res, nil
}

// shape is what the per-layer probes copy from a workload instance, so
// each probe runs at the workload's population and sizes.
type shape struct {
	topo        testbed.Topology
	engine      sim.Engine // engine holding most pending events
	pending     int        // mean pending events per queue of that engine
	payload     int        // CoAP payload bytes
	serveRate   float64    // requests/s reaching the busiest sink
	trafficSpan sim.Duration
}

func shapeOf(nw *exp.Network, topo testbed.Topology, w *workload) shape {
	sh := shape{topo: topo, payload: w.traffic.PayloadBytes, trafficSpan: w.trafficSpan}
	var sims []*sim.Sim
	if nw.Sharded != nil {
		for i := 0; i < nw.Sharded.Domains(); i++ {
			sims = append(sims, nw.Sharded.Shard(i))
		}
	} else {
		sims = append(sims, nw.Sim)
	}
	pending := map[sim.Engine]int{}
	queues := map[sim.Engine]int{}
	for _, s := range sims {
		pending[s.Engine()] += s.Pending()
		queues[s.Engine()]++
	}
	best := -1
	for _, e := range []sim.Engine{sim.EngineWheel, sim.EngineHeap} {
		if queues[e] > 0 && pending[e] > best {
			best = pending[e]
			sh.engine = e
			sh.pending = pending[e] / queues[e]
		}
	}
	var served uint64
	for _, id := range topo.SiteConsumers() {
		if n := nw.Node(id); n != nil && n.Coap.Stats().RequestsServed > served {
			served = n.Coap.Stats().RequestsServed
		}
	}
	sh.serveRate = float64(served) / w.trafficSpan.Seconds()
	return sh
}
