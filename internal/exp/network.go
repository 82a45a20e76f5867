// Package exp is the experiment harness: it assembles the paper's testbed
// networks (BLE and IEEE 802.15.4), drives the producer/consumer CoAP
// workload of §4.3, collects the paper's metrics (CoAP PDR, link-layer PDR,
// RTT distributions, connection losses, energy), and exposes one runnable
// experiment per table and figure of the evaluation.
package exp

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"blemesh/internal/arena"
	"blemesh/internal/ble"
	"blemesh/internal/coap"
	"blemesh/internal/core"
	"blemesh/internal/energy"
	"blemesh/internal/ip6"
	"blemesh/internal/metrics"
	"blemesh/internal/phy"
	"blemesh/internal/rpl"
	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/testbed"
	"blemesh/internal/trace"
)

// RoutingMode selects how a network's IP routes come to exist.
type RoutingMode int

const (
	// RoutingStatic provisions host routes along the unique topology paths
	// at build time, exactly as the paper configures its testbed (§4.3).
	// The default: every pre-existing experiment runs byte-identically.
	RoutingStatic RoutingMode = iota
	// RoutingDynamic runs RPL-lite (internal/rpl) on every node instead:
	// routes are discovered, advertised, and repaired at runtime.
	RoutingDynamic
)

func (m RoutingMode) String() string {
	if m == RoutingDynamic {
		return "dynamic"
	}
	return "static"
}

// ParseRouting parses a -routing flag value.
func ParseRouting(s string) (RoutingMode, error) {
	switch s {
	case "", "static":
		return RoutingStatic, nil
	case "dynamic":
		return RoutingDynamic, nil
	}
	return RoutingStatic, fmt.Errorf("unknown routing mode %q (static|dynamic)", s)
}

// NetworkConfig parameterises a BLE testbed network.
type NetworkConfig struct {
	Seed     int64
	Topology testbed.Topology
	// Engine selects the sim event-queue engine backing the run (default
	// timer wheel; the heap reference engine exists for equivalence
	// testing).
	Engine sim.Engine
	// Policy selects the connection interval strategy (static vs the
	// paper's randomized mitigation).
	Policy statconn.IntervalPolicy
	// MaxPPM bounds each node's clock error; the paper measured ±3ppm
	// (≤6µs/s relative drift).
	MaxPPM float64
	// SCA is the declared sleep-clock accuracy (≥ MaxPPM).
	SCA float64
	// Supervision overrides the supervision timeout (0 = BLE default).
	Supervision sim.Duration
	// Arbitration selects the radio scheduler policy.
	Arbitration ble.Arbitration
	// NoisePER is the background packet error rate of the 2.4GHz band.
	NoisePER float64
	// JamChannel22 reproduces the testbed's permanently jammed channel;
	// nodes exclude it from their channel maps, as the paper does.
	JamChannel22 bool
	// DisableWindowWidening is the ablation switch.
	DisableWindowWidening bool
	// PPMOverride pins specific nodes' clock errors (ablations).
	PPMOverride map[int]float64
	// Trace enables the per-node link event log (§4.2-style records).
	Trace bool
	// TraceCapacity overrides the per-node trace ring capacity in events
	// (default 65536). Provenance-heavy runs (latency decomposition) need
	// more.
	TraceCapacity int
	// TraceSample keeps provenance spans for only this fraction of packets
	// (0 or ≥1 = keep all). The decision is a pure hash of the packet ID
	// made at mint time, so kept packets retain their complete multi-layer
	// journeys and decompositions still tile exactly.
	TraceSample float64
	// StreamMetrics, when set, receives periodic registry snapshots as
	// NDJSON during the run (one Gather pass every StreamEvery, each line
	// tagged with snapshot index and sim time).
	StreamMetrics io.Writer
	// StreamEvery is the metrics streaming period (default 60s).
	StreamEvery sim.Duration
	// SeriesBucket overrides the PDR time-series bucket (default 60s; the
	// churn experiment uses finer buckets to localise outage windows).
	SeriesBucket sim.Duration
	// Burst adds a Gilbert–Elliott bursty-loss process to the medium (nil =
	// none). Bursts are what actually break links: a diffuse PER of the
	// same average intensity is absorbed by per-event retransmission.
	Burst *phy.BurstParams
	// Routing selects static provisioned routes (default, the paper's
	// configuration) or the RPL-lite dynamic routing plane.
	Routing RoutingMode
	// RPL overrides the per-node RPL-lite configuration in dynamic mode
	// (Root is set per node regardless; nil uses rpl defaults).
	RPL *rpl.Config
	// Lean drops the per-node registry collectors and the per-producer
	// heatmap rows, keeping only the network-level aggregates. City-scale
	// runs (10k+ nodes) set it so metric memory stays O(sites), not
	// O(nodes); streaming snapshots and the aggregate counters are
	// unaffected.
	Lean bool
	// SparseRoutes provisions only the sink-tree routes — every node to its
	// site sink via its SinkForest parent, every ancestor of a node back
	// down the tree — instead of all-pairs host routes: O(N·depth) entries
	// rather than O(N²). The producer/consumer workload needs nothing more.
	SparseRoutes bool
	// LinearPHY forces geometric media down the linear distance-filter scan
	// instead of the spatial grid index. Output must be byte-identical
	// either way; the differential test layer flips this to prove it.
	LinearPHY bool
	// Shards selects the sharded scheduler (internal/sim Sharded): the
	// topology is cut into RF-isolated sites (connected components), each
	// driven by its own event queue and clock under a conservative barrier
	// protocol, and Shards worker goroutines execute the site windows.
	// 0 (default) keeps the historical serial single-queue run. Any value
	// ≥ 1 selects the sharded schedule, whose output is byte-identical for
	// every worker count — and, on single-site topologies, byte-identical
	// to the serial run as well.
	Shards int
}

func (c *NetworkConfig) defaults() {
	if c.Topology.Name == "" {
		c.Topology = testbed.Tree()
	}
	if c.Policy == nil {
		c.Policy = statconn.Static{Interval: 75 * sim.Millisecond}
	}
	if c.MaxPPM == 0 {
		c.MaxPPM = 3
	}
	if c.SCA == 0 {
		c.SCA = 50
	}
	if c.NoisePER == 0 {
		c.NoisePER = 0.005
	}
}

// TrafficConfig is the §4.3 producer/consumer workload.
type TrafficConfig struct {
	// Interval is the mean producer interval (paper default 1s).
	Interval sim.Duration
	// Jitter is the uniform ± jitter (paper default ±0.5×interval).
	Jitter sim.Duration
	// PayloadBytes is the CoAP payload (paper: 39 bytes ⇒ 100-byte IP
	// packets).
	PayloadBytes int
}

func (t *TrafficConfig) defaults() {
	if t.Interval == 0 {
		t.Interval = sim.Second
	}
	if t.Jitter == 0 {
		t.Jitter = t.Interval / 2
	}
	if t.PayloadBytes == 0 {
		t.PayloadBytes = 39
	}
}

// Network is an assembled BLE testbed network with live metric collection.
type Network struct {
	// Sim is the run's scheduling surface for external code (fault plans,
	// streaming ticks): the single simulation in serial runs, site 0 in
	// single-site sharded runs, and the barrier-synchronized global lane
	// in multi-site sharded runs.
	Sim *sim.Sim
	// Sharded is the conservative parallel scheduler; nil in serial runs.
	Sharded *sim.Sharded
	// Medium is the first (often only) RF medium; Media holds one medium
	// per site in sharded runs (Media[0] == Medium).
	Medium *phy.Medium
	Media  []*phy.Medium
	Cfg    NetworkConfig
	// Nodes and Meters are dense id-indexed slices (testbed IDs are small
	// integers; generated topologies use 1..N). Entries at unused IDs are
	// nil — range loops must skip them; NodeCount is the built-node count.
	Nodes  []*core.Node
	Meters []*energy.Meter

	consumerID int
	nodeCount  int

	// Site decomposition: sites are the topology's connected components;
	// consumers holds one traffic sink per site (aligned with sites).
	sites     [][]int
	siteOf    []int
	consumers []int
	// perSite marks multi-site sharded runs, where RTT/PDR collection is
	// split per site so domain windows never share a metrics object.
	perSite bool

	// Trace is the network-wide event log (enabled via NetworkConfig).
	Trace *trace.Log

	// Registry is the unified metrics surface: every node's Stats() sources
	// and the network-level aggregates register named collectors here.
	Registry *metrics.Registry

	// Metrics. In perSite runs RTTs/Series alias site 0's objects; use
	// MergedRTTs/MergedSeries for network-wide views.
	RTTs     *metrics.CDF
	PerProd  *metrics.Heatmap
	Series   *metrics.TimeSeries
	rtts     []*metrics.CDF
	series   []*metrics.TimeSeries
	llSeries *llSampler
	traffic  TrafficConfig
	started  bool
	lossBase uint64 // link losses before traffic start (setup collisions)

	// Fault-injection hooks (Network implements fault.Target), one per
	// medium so faults hit every site.
	blackouts []*phy.Switched
	jammers   map[phy.Channel][]*phy.Switched
}

// heapEngineSiteMax is the largest site the arena build path runs on the
// heap event queue instead of the configured engine, and heapEngineMinSites
// is the smallest site count at which that substitution kicks in (see
// BuildNetwork). The heap trades per-event speed (the wheel wins the storm
// benchmarks ~2×) for per-queue footprint (~9KB of fixed slot arrays), so
// it only pays when small queues are numerous.
const (
	heapEngineSiteMax  = 256
	heapEngineMinSites = 64
)

// BuildNetwork assembles the BLE network for cfg.
//
// With cfg.Shards == 0 (the default) the whole network runs on one serial
// simulation; multi-site topologies share that simulation through a
// domain-partitioned medium. With cfg.Shards ≥ 1 each site (connected
// component — an RF-closure domain with effectively infinite lookahead to
// every other site) gets its own simulation and medium under the
// conservative barrier scheduler, and cfg.Shards worker goroutines execute
// the site windows. Output is a pure function of the site decomposition,
// never of the worker count.
func BuildNetwork(cfg NetworkConfig) *Network {
	cfg.defaults()
	if cfg.Routing == RoutingDynamic && cfg.SparseRoutes {
		panic("exp: SparseRoutes requires RoutingStatic — sparse provisioning " +
			"pre-installs the sink-tree host routes at build time, which " +
			"RPL-lite would immediately shadow and churn; drop SparseRoutes " +
			"or use static routing")
	}
	sites := cfg.Topology.Sites()
	ids := cfg.Topology.Nodes()
	maxID := 0
	for _, id := range ids {
		if id > maxID {
			maxID = id
		}
	}
	shardedMode := cfg.Shards >= 1

	seriesBucket := cfg.SeriesBucket
	if seriesBucket <= 0 {
		seriesBucket = 60 * sim.Second
	}
	nw := &Network{
		Cfg:        cfg,
		Nodes:      make([]*core.Node, maxID+1),
		Meters:     make([]*energy.Meter, maxID+1),
		consumerID: cfg.Topology.Consumer,
		nodeCount:  len(ids),
		sites:      sites,
		siteOf:     make([]int, maxID+1),
		consumers:  cfg.Topology.SiteConsumers(),
		perSite:    shardedMode && len(sites) > 1,
		PerProd:    metrics.NewHeatmap(60 * sim.Second),
		Registry:   metrics.NewRegistry(),
		jammers:    make(map[phy.Channel][]*phy.Switched),
	}
	for si, site := range sites {
		for _, id := range site {
			nw.siteOf[id] = si
		}
	}

	// Scheduling surfaces: one Sim per site (all the same Sim in serial
	// mode), plus nw.Sim for external scheduling (see the field comment).
	siteSims := make([]*sim.Sim, len(sites))
	if shardedMode {
		engineFor := func(int) sim.Engine { return cfg.Engine }
		if len(sites) >= heapEngineMinSites {
			// Small sites run on the heap engine: a timer wheel carries
			// ~9KB of fixed slot arrays per queue, which city-scale site
			// counts multiply into megabytes, while a heap starts empty and
			// a small site never grows it far. Below heapEngineMinSites the
			// wheel's per-event edge outweighs the few KB saved, so small
			// topologies (the sharded forest bench among them) keep the
			// configured engine. The engines are event-for-event equivalent
			// (differentially tested in internal/sim and by the
			// engine-identity tests here), so the selection cannot change
			// output.
			engineFor = func(d int) sim.Engine {
				if len(sites[d]) <= heapEngineSiteMax {
					return sim.EngineHeap
				}
				return cfg.Engine
			}
		}
		sh := sim.NewShardedSelect(cfg.Seed, len(sites), 0, engineFor)
		sh.SetWorkers(cfg.Shards)
		nw.Sharded = sh
		for i := range siteSims {
			siteSims[i] = sh.Shard(i)
		}
		if len(sites) > 1 {
			nw.Sim = sh.Global()
		} else {
			nw.Sim = sh.Shard(0)
		}
	} else {
		s := sim.NewWithEngine(cfg.Seed, cfg.Engine)
		nw.Sim = s
		for i := range siteSims {
			siteSims[i] = s
		}
	}

	// RF media: serial runs share one medium (multi-site topologies
	// partition it into RF domains); sharded runs give each site its own
	// medium on its own simulation. Interference attach order matches the
	// historical build exactly: noise, channel-22 jammer, burst, blackout.
	chanMap := ble.AllDataChannels
	if cfg.JamChannel22 {
		chanMap = chanMap.WithoutChannel(22)
	}
	buildMedium := func(s *sim.Sim) *phy.Medium {
		m := phy.NewMedium(s)
		if cfg.NoisePER > 0 {
			m.AddInterference(phy.RandomNoise{PER: cfg.NoisePER})
		}
		if cfg.JamChannel22 {
			m.AddInterference(phy.Jammer{Ch: 22})
		}
		if cfg.Burst != nil {
			m.AddInterference(phy.NewBurstNoise(s, *cfg.Burst))
		}
		b := phy.NewSwitched(phy.Jammer{Ch: phy.AnyChannel})
		m.AddInterference(b)
		nw.blackouts = append(nw.blackouts, b)
		// Positioned topologies switch the medium into geometric mode: the
		// disk range matches the generator's link-derivation range, so the
		// PHY and the topology agree bit-for-bit on who hears whom.
		if cfg.Topology.Range > 0 {
			m.SetRange(cfg.Topology.Range)
			m.SetLinearScan(cfg.LinearPHY)
		}
		nw.Media = append(nw.Media, m)
		return m
	}
	if shardedMode {
		for i := range sites {
			buildMedium(siteSims[i])
		}
	} else {
		buildMedium(nw.Sim)
	}
	nw.Medium = nw.Media[0]
	// Radios come out of per-medium slabs: each medium knows exactly how
	// many nodes will attach, so NewRadio hands out contiguous elements
	// instead of one small allocation per node.
	if shardedMode {
		for si, site := range sites {
			nw.Media[si].ReserveRadios(len(site))
		}
	} else {
		nw.Medium.ReserveRadios(len(ids))
	}

	// Metric surfaces: one RTT CDF and PDR series per site in perSite
	// runs; a single shared pair otherwise. RTTs/Series always alias
	// site 0 so single-site experiment code reads them unchanged.
	nsurf := 1
	if nw.perSite {
		nsurf = len(sites)
	}
	// Struct-of-arrays metric surfaces: two slabs instead of 2·nsurf small
	// allocations (nsurf is the site count in perSite city runs).
	cdfs := make([]metrics.CDF, nsurf)
	tss := make([]metrics.TimeSeries, nsurf)
	nw.rtts = make([]*metrics.CDF, nsurf)
	nw.series = make([]*metrics.TimeSeries, nsurf)
	for i := 0; i < nsurf; i++ {
		tss[i].Bucket = seriesBucket
		nw.rtts[i] = &cdfs[i]
		nw.series[i] = &tss[i]
	}
	nw.RTTs, nw.Series = nw.rtts[0], nw.series[0]

	nw.Trace = trace.New(nw.Sim, cfg.TraceCapacity)
	if cfg.Trace {
		nw.Trace.Enable()
		nw.Trace.SetSampleRate(cfg.TraceSample)
	}

	ppm := testbed.ClockPPM(cfg.Seed, ids, cfg.MaxPPM)
	for id, v := range cfg.PPMOverride {
		ppm[id] = v
	}
	names := make(map[int]string)
	for _, d := range testbed.BLENodes() {
		names[d.ID] = d.Name
	}
	nodeName := func(id int) string {
		if n := names[id]; n != "" {
			return n
		}
		return fmt.Sprintf("node-%d", id)
	}
	if shardedMode {
		// Sharded recording must never grow the ring map from a worker
		// goroutine: register every emitter up front against its site's
		// clock, then freeze. With tracing off the registration is skipped
		// entirely — a disabled log never records, and the per-node
		// name/ring bookkeeping is pure waste at city scale.
		if cfg.Trace {
			for _, id := range ids {
				nw.Trace.RegisterNode(nodeName(id), siteSims[nw.siteOf[id]], nw.siteOf[id])
			}
		}
		nw.Trace.Freeze()
	}

	// Preallocated node storage: one arena per site in sharded mode (each
	// site's builder carves its own slabs, so the fill can run in
	// parallel), one network-wide arena in serial mode (a serial run shares
	// one RNG across sites, so nodes must build in global id order — a
	// single arena carves in exactly that order).
	var arenas []*core.Arena
	if shardedMode {
		sizes := make([]int, len(sites))
		for si, site := range sites {
			sizes[si] = len(site)
		}
		arenas = core.NewArenas(sizes)
	} else {
		arenas = []*core.Arena{core.NewArena(len(ids), nil)}
	}
	meterSlab := make([]energy.Meter, maxID+1)

	// The sink forest is O(network) to derive — compute it once here and
	// share it between the route-counting pass and every per-site install
	// (re-deriving it per site would turn the fill quadratic).
	var sinkParent map[int]int
	if cfg.Routing == RoutingStatic && cfg.SparseRoutes {
		sinkParent = cfg.Topology.SinkForest()
	}

	// Count-then-carve for the sparse route tables: walk the same
	// SinkForest parent chains installSparseRoutes walks — one upward
	// route per non-sink node, one downward route per ancestor on its
	// chain — then carve each node's exact window out of one shared slab.
	// The stack's live table and the node's provisioned copy alias the
	// same backing: AddHostRoute appends the same route to both lists in
	// lockstep (sparse sink-tree destinations are unique per node, so
	// AddRoute never takes its replace branch), static routes are never
	// removed, and a Restart re-appends the identical values over
	// themselves — so one window serves both views at half the storage.
	var (
		routeB   *arena.Builder
		routeBuf []ip6.Route
	)
	if sinkParent != nil {
		routeB = arena.NewBuilder(maxID + 1)
		for _, id := range ids {
			p, ok := sinkParent[id]
			if !ok {
				continue
			}
			routeB.Count(id, 1)
			for ok {
				routeB.Count(p, 1)
				p, ok = sinkParent[p]
			}
		}
		routeB.Seal()
		routeBuf = make([]ip6.Route, routeB.Total())
	}

	rplFor := func(id int) *rpl.Config {
		if cfg.Routing != RoutingDynamic {
			return nil
		}
		c := rpl.Config{}
		if cfg.RPL != nil {
			c = *cfg.RPL
		}
		c.Root = id == cfg.Topology.Consumer
		return &c
	}
	buildNode := func(id int) {
		site := nw.siteOf[id]
		medium, ar := nw.Media[0], arenas[0]
		if shardedMode {
			medium, ar = nw.Media[site], arenas[site]
		} else {
			medium.SetDomain(site)
		}
		n := core.NewNode(siteSims[site], medium, core.NodeConfig{
			Name:     nodeName(id),
			MAC:      uint64(0x5A0000000000) + uint64(id),
			ClockPPM: ppm[id],
			SCA:      cfg.SCA,
			Statconn: statconn.Config{
				Policy:      cfg.Policy,
				Supervision: cfg.Supervision,
				ChanMap:     chanMap,
			},
			Arbitration:           cfg.Arbitration,
			DisableWindowWidening: cfg.DisableWindowWidening,
			Trace:                 nw.Trace,
			Routing:               rplFor(id),
			Arena:                 ar,
		})
		if p, ok := cfg.Topology.Pos[id]; ok {
			n.Radio.SetPosition(p.X, p.Y, p.Z)
		}
		nw.Nodes[id] = n
		m := &meterSlab[id]
		energy.NewMeterInto(m, energy.DefaultParams(), n.Ctrl, n.Radio)
		nw.Meters[id] = m
	}
	// Manual IP routes along the unique topology paths (§4.3). In dynamic
	// mode RPL-lite discovers and maintains routes instead.
	installRoutes := func(ids []int) {
		if cfg.Routing != RoutingStatic {
			return
		}
		if cfg.SparseRoutes {
			for _, id := range ids {
				v := arena.View(routeB, routeBuf, id)
				nw.Nodes[id].Stack.ReserveRoutes(v)
				nw.Nodes[id].ReserveProvRoutes(v)
			}
			nw.installSparseRoutes(ids, sinkParent)
			return
		}
		for _, from := range ids {
			next := cfg.Topology.NextHops(from)
			for dst, hop := range next {
				nw.Nodes[from].AddHostRoute(nw.Nodes[dst], nw.Nodes[hop])
			}
		}
	}

	subCount := cfg.Topology.SubordinateCount()
	if shardedMode {
		// Parallel two-pass build: sites are RF-isolated and draw from
		// independent per-site RNG streams, so the only ordering that
		// matters is within a site — and each site runs the exact phase
		// order of the historical global loop (nodes in id order, inbound
		// slots in id order, links in declaration order, routes). Every
		// write lands in site-private storage (the site's arena slabs) or
		// at a site-owned dense index (Nodes/Meters/route windows), so
		// workers coordinate only through the claim counter.
		siteLinks := make([][]testbed.Link, len(sites))
		for _, l := range cfg.Topology.Links {
			si := nw.siteOf[l.Coordinator]
			siteLinks[si] = append(siteLinks[si], l)
		}
		fillSite := func(si int) {
			site := sites[si]
			for _, id := range site {
				buildNode(id)
			}
			for _, id := range site {
				if k := subCount[id]; k > 0 {
					nw.Nodes[id].AcceptInbound(k)
				}
			}
			for _, l := range siteLinks[si] {
				nw.Nodes[l.Coordinator].ConnectTo(nw.Nodes[l.Subordinate])
			}
			installRoutes(site)
		}
		workers := cfg.Shards
		if workers > len(sites) {
			workers = len(sites)
		}
		if workers <= 1 {
			for si := range sites {
				fillSite(si)
			}
		} else {
			var next int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						si := int(atomic.AddInt64(&next, 1)) - 1
						if si >= len(sites) {
							return
						}
						fillSite(si)
					}
				}()
			}
			wg.Wait()
		}
	} else {
		for _, id := range ids {
			buildNode(id)
		}
		// Static links: subordinates advertise, coordinators connect.
		// Iterate in node-ID order — map iteration order would consume the
		// shared RNG nondeterministically and break run reproducibility.
		for _, id := range ids {
			if k := subCount[id]; k > 0 {
				nw.Nodes[id].AcceptInbound(k)
			}
		}
		for _, l := range cfg.Topology.Links {
			nw.Nodes[l.Coordinator].ConnectTo(nw.Nodes[l.Subordinate])
		}
		installRoutes(ids)
	}
	nw.llSeries = newLLSampler(nw, 60*sim.Second)
	nw.registerMetrics(ids)
	if cfg.StreamMetrics != nil {
		every := cfg.StreamEvery
		if every <= 0 {
			every = 60 * sim.Second
		}
		st := nw.Registry.StreamNDJSON(cfg.StreamMetrics)
		// The tick only reads collectors and writes to an external sink —
		// it never touches the sim RNG, so streaming cannot perturb a run.
		// In multi-site sharded runs nw.Sim is the global lane, so each
		// snapshot observes every site at a consistent barrier time.
		var tick func()
		tick = func() {
			_ = st.Snapshot(int64(nw.Sim.Now()))
			nw.Sim.Post(every, tick)
		}
		nw.Sim.Post(every, tick)
	}
	return nw
}

// installSparseRoutes provisions only the sink-tree routes: each node
// reaches its site sink via its SinkForest parent, and every ancestor of a
// node v (the sink included) reaches v via the on-path child. Producer →
// sink requests and sink → producer responses both ride these entries —
// O(N·depth) table entries rather than the all-pairs O(N²). The caller
// supplies the (whole-network) sink forest so per-site installs share one
// derivation.
func (nw *Network) installSparseRoutes(ids []int, parent map[int]int) {
	for _, id := range ids {
		p, ok := parent[id]
		if !ok {
			continue // site sink (or isolated singleton): nothing upward
		}
		nw.Nodes[id].AddHostRoute(nw.Nodes[nw.consumers[nw.siteOf[id]]], nw.Nodes[p])
		cur := id
		for ok {
			nw.Nodes[p].AddHostRoute(nw.Nodes[id], nw.Nodes[cur])
			cur = p
			p, ok = parent[p]
		}
	}
}

// registerMetrics wires every node's Stats() sources and the network-level
// aggregates into the unified registry. Nodes register in ID order; Gather
// sorts by name anyway, but registration order stays deterministic. Lean
// builds keep only the network-level aggregates.
func (nw *Network) registerMetrics(ids []int) {
	if nw.Cfg.Lean {
		ids = nil
	}
	for _, id := range ids {
		n := nw.Nodes[id]
		name := n.Name
		if name == "" {
			name = fmt.Sprintf("node-%d", id)
		}
		coapEP, netif, stack, mgr := n.Coap, n.NetIf, n.Stack, n.Statconn
		nw.Registry.Register(name+".coap", func() []metrics.Sample {
			st := coapEP.Stats()
			return counterSamples(name+".coap",
				"requests_sent", st.RequestsSent,
				"retransmissions", st.Retransmissions,
				"responses_matched", st.ResponsesMatched,
				"timeouts", st.Timeouts,
				"give_ups", st.GiveUps,
				"requests_served", st.RequestsServed)
		})
		nw.Registry.Register(name+".netif", func() []metrics.Sample {
			st := netif.Stats()
			return counterSamples(name+".netif",
				"tx_packets", st.TXPackets,
				"rx_packets", st.RXPackets,
				"queue_drops", st.QueueDrops,
				"link_drops", st.LinkDrops)
		})
		nw.Registry.Register(name+".ip6", func() []metrics.Sample {
			st := stack.Stats()
			return counterSamples(name+".ip6",
				"sent", st.Sent,
				"received", st.Received,
				"forwarded", st.Forwarded,
				"no_route", st.NoRoute,
				"no_neighbor", st.NoNeighbor,
				"hop_limit", st.HopLimit,
				"queue_drops", st.QueueDrops)
		})
		nw.Registry.Register(name+".statconn", func() []metrics.Sample {
			st := mgr.Stats()
			return counterSamples(name+".statconn",
				"links_opened", st.LinksOpened,
				"link_losses", st.LinkLosses,
				"interval_rejects", st.IntervalRejects,
				"reconnects", st.Reconnects)
		})
		// Dynamic-routing collectors only exist in dynamic mode, so static
		// runs' registry output stays byte-identical with pre-routing builds.
		if router := n.RPL; router != nil {
			nw.Registry.Register(name+".rpl", func() []metrics.Sample {
				st := router.Stats()
				out := counterSamples(name+".rpl",
					"dio_sent", st.DIOSent,
					"dio_recv", st.DIORecv,
					"dao_sent", st.DAOSent,
					"dao_recv", st.DAORecv,
					"dis_sent", st.DISSent,
					"dis_recv", st.DISRecv,
					"decode_errors", st.DecodeErrors,
					"trickle_resets", st.TrickleResets,
					"trickle_suppressed", st.TrickleSuppress,
					"parent_switches", st.ParentSwitches,
					"local_repairs", st.LocalRepairs,
					"joins", st.Joins)
				return append(out, metrics.Sample{Name: name + ".rpl",
					Label: "rank", Kind: metrics.KindGauge,
					Value: float64(st.Rank)})
			})
			// Per-peer link quality: the exact ETX the routing metric reads,
			// so dashboards and parent choices can be cross-checked.
			nw.Registry.Register(name+".links", func() []metrics.Sample {
				var out []metrics.Sample
				for _, l := range mgr.Stats().Links {
					out = append(out, metrics.Sample{Name: name + ".links",
						Label: fmt.Sprintf("etx_%012x", uint64(l.Peer)),
						Kind:  metrics.KindGauge, Value: l.ETX})
				}
				return out
			})
		}
	}
	nw.Registry.RegisterGauge("net.coap_pdr", func() float64 { return nw.CoAPPDR().Rate() })
	nw.Registry.RegisterGauge("net.ll_pdr", nw.LLPDR)
	nw.Registry.RegisterCounter("net.conn_losses", func() float64 { return float64(nw.ConnLosses()) })
	nw.Registry.RegisterCounter("net.buffer_drops", func() float64 { return float64(nw.BufferDrops()) })
	if nw.perSite {
		// Merge the per-site CDFs at gather time; CDFSamples reproduces
		// RegisterCDF's exact sample shape, so the export rows are
		// byte-compatible with the single-CDF path.
		nw.Registry.Register("net.rtt_seconds", func() []metrics.Sample {
			return metrics.CDFSamples("net.rtt_seconds", nw.MergedRTTs())
		})
	} else {
		nw.Registry.RegisterCDF("net.rtt_seconds", nw.RTTs)
	}
	nw.Registry.Register("net.trace", func() []metrics.Sample {
		out := []metrics.Sample{{Name: "net.trace", Label: "events_total",
			Kind: metrics.KindCounter, Value: float64(nw.Trace.Total())}}
		// Sampling counters appear only when sampling is armed, so
		// full-trace runs' registry output stays byte-identical with
		// pre-sampling builds.
		if nw.Trace.Sampling() {
			out = append(out,
				metrics.Sample{Name: "net.trace", Label: "pkt_kept",
					Kind: metrics.KindCounter, Value: float64(nw.Trace.PktKept())},
				metrics.Sample{Name: "net.trace", Label: "pkt_dropped",
					Kind: metrics.KindCounter, Value: float64(nw.Trace.PktDropped())})
		}
		return out
	})
}

// counterSamples builds counter samples for one collector from
// (label, value) pairs.
func counterSamples(name string, pairs ...any) []metrics.Sample {
	out := make([]metrics.Sample, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, metrics.Sample{Name: name, Label: pairs[i].(string),
			Kind: metrics.KindCounter, Value: float64(pairs[i+1].(uint64))})
	}
	return out
}

// Journeys reassembles the retained provenance spans into per-packet,
// per-hop journeys (latency decomposition source).
func (nw *Network) Journeys() []*trace.Journey {
	return trace.Journeys(nw.Trace)
}

// Consumer returns the consumer node.
func (nw *Network) Consumer() *core.Node { return nw.Nodes[nw.consumerID] }

// Node returns a node by testbed ID, nil for IDs not in the network (the
// dense table keeps the old map lookup's miss semantics).
func (nw *Network) Node(id int) *core.Node {
	if id < 0 || id >= len(nw.Nodes) {
		return nil
	}
	return nw.Nodes[id]
}

// NodeCount returns the number of nodes built into the network. The dense
// id-indexed Nodes/Meters slices may carry nil gaps (testbed IDs need not
// be contiguous), so their length is not the population.
func (nw *Network) NodeCount() int { return nw.nodeCount }

// Now returns the run's current time: the barrier time in sharded runs,
// the simulation clock otherwise.
func (nw *Network) Now() sim.Time {
	if nw.Sharded != nil {
		return nw.Sharded.Now()
	}
	return nw.Sim.Now()
}

// WaitTopology runs the simulation until every configured link is up (or
// the deadline passes). It returns whether the topology formed.
func (nw *Network) WaitTopology(deadline sim.Duration) bool {
	end := nw.Now() + deadline
	for nw.Now() < end {
		if nw.linksUp() {
			return true
		}
		nw.Run(100 * sim.Millisecond)
	}
	return nw.linksUp()
}

func (nw *Network) linksUp() bool {
	for _, l := range nw.Cfg.Topology.Links {
		// Usable means the IPSP channel is open, not merely that a
		// CONNECT_IND went out (establishment can still fail).
		subMAC := uint64(nw.Nodes[l.Subordinate].DevAddr())
		ch := nw.Nodes[l.Coordinator].NetIf.Channel(subMAC)
		if ch == nil || !ch.Open() {
			return false
		}
	}
	return true
}

// nodeByMAC maps a BLE device address back to its node (MACs embed the
// testbed ID).
func (nw *Network) nodeByMAC(mac uint64) *core.Node {
	id := int(mac - 0x5A0000000000)
	if id < 0 || id >= len(nw.Nodes) {
		return nil
	}
	return nw.Nodes[id]
}

// Converged reports whether the routing plane can carry traffic between
// every running producer and the consumer. Static networks converge when the
// topology is up. Dynamic networks additionally require each running node to
// have joined the DODAG, its preferred-parent chain to reach the root over
// open links, and the root to hold a downward host route for it — i.e. both
// the upward default route and the DAO state are in place.
func (nw *Network) Converged() bool {
	if nw.Cfg.Routing != RoutingDynamic {
		return nw.linksUp()
	}
	root := nw.Consumer()
	if !root.Running() {
		return false
	}
	for _, id := range nw.Cfg.Topology.Nodes() {
		n := nw.Nodes[id]
		if id == nw.consumerID || !n.Running() {
			continue
		}
		if n.RPL == nil || !n.RPL.Joined() {
			return false
		}
		// Walk the preferred-parent chain up to the root; every hop must be
		// a running node reachable over an open IPSP channel.
		cur := n
		for hops := 0; cur != root; hops++ {
			if hops > len(nw.Nodes) {
				return false // would be a loop; the rank invariant forbids it
			}
			pmac := cur.RPL.Preferred()
			if pmac == 0 {
				return false
			}
			ch := cur.NetIf.Channel(pmac)
			if ch == nil || !ch.Open() {
				return false
			}
			next := nw.nodeByMAC(pmac)
			if next == nil || !next.Running() {
				return false
			}
			cur = next
		}
		// Downward: the root must have learned a DAO host route for n (an
		// on-link sentinel left by a no-path purge does not count).
		if r, ok := root.Stack.LookupRoute(n.Addr()); !ok || r.NextHop.IsUnspecified() {
			return false
		}
	}
	return true
}

// WaitConverged runs the simulation until Converged (or the deadline
// passes), polling every 100ms; it returns whether convergence was reached.
func (nw *Network) WaitConverged(deadline sim.Duration) bool {
	end := nw.Now() + deadline
	for nw.Now() < end {
		if nw.Converged() {
			return true
		}
		nw.Run(100 * sim.Millisecond)
	}
	return nw.Converged()
}

// StartTraffic installs the consumer handler and schedules every producer's
// send loop (each with its own uniform jitter, as §4.3 prescribes).
func (nw *Network) StartTraffic(t TrafficConfig) {
	t.defaults()
	nw.traffic = t
	nw.started = true
	nw.lossBase = nw.rawConnLosses()
	// Iterate node IDs in topology order, not map order: Reset is
	// order-independent today, but output/scheduling paths must never
	// depend on Go map iteration.
	for _, id := range nw.Cfg.Topology.Nodes() {
		if m := nw.Meters[id]; m != nil {
			m.Reset(nw.Now())
		}
	}
	// Every site's sink answers; single-site topologies have exactly the
	// historical consumer.
	for _, cid := range nw.consumers {
		nw.Nodes[cid].Coap.Handler = func(_ ip6.Addr, req *coap.Message) *coap.Message {
			return &coap.Message{Type: coap.ACK, Code: coap.CodeValid}
		}
	}
	for _, id := range nw.Cfg.Topology.Producers() {
		nw.startProducer(id, t)
	}
}

func (nw *Network) startProducer(id int, t TrafficConfig) {
	node := nw.Nodes[id]
	name := node.Name
	if name == "" {
		name = fmt.Sprintf("node-%d", id)
	}
	// Lean runs keep no per-producer heatmap rows: at 10k producers the
	// rows (one time series each) would dwarf the network itself.
	var row *metrics.TimeSeries
	if !nw.Cfg.Lean {
		row = nw.PerProd.Row(name)
	}
	// Everything the loop touches is site-local: the node's own Sim (the
	// shared serial Sim outside sharded runs), the site's sink, and the
	// site's metric surfaces — so producer events run safely inside
	// parallel domain windows.
	s := node.Sim
	series, rtts := nw.Series, nw.RTTs
	if nw.perSite {
		site := nw.siteOf[id]
		series, rtts = nw.series[site], nw.rtts[site]
	}
	dst := nw.Nodes[nw.consumers[nw.siteOf[id]]].Addr()
	var loop func()
	loop = func() {
		sent := s.Now()
		req := &coap.Message{Type: coap.NON, Code: coap.CodeGET,
			Payload: make([]byte, t.PayloadBytes)}
		req.SetPath("s")
		series.RecordSent(sent)
		if row != nil {
			row.RecordSent(sent)
		}
		err := node.Coap.Request(dst, req, func(m *coap.Message, rtt sim.Duration, _ error) {
			if m == nil {
				return
			}
			series.RecordDelivered(sent)
			if row != nil {
				row.RecordDelivered(sent)
			}
			rtts.AddDuration(rtt)
		})
		_ = err // send failures (no route during reconnect) count as losses
		delay := t.Interval
		if t.Jitter > 0 {
			delay += sim.Duration(s.Rand().Int63n(int64(2*t.Jitter))) - t.Jitter
		}
		s.Post(delay, loop)
	}
	// Desynchronise producers at start.
	s.Post(sim.Duration(s.Rand().Int63n(int64(t.Interval))), loop)
}

// Run advances the simulation by d — window by window under the sharded
// scheduler, serially otherwise.
func (nw *Network) Run(d sim.Duration) {
	if nw.Sharded != nil {
		nw.Sharded.Run(nw.Sharded.Now() + d)
		return
	}
	nw.Sim.Run(nw.Sim.Now() + d)
}

// Processed returns the number of simulation events executed so far.
func (nw *Network) Processed() uint64 {
	if nw.Sharded != nil {
		return nw.Sharded.Processed()
	}
	return nw.Sim.Processed()
}

// ---- Aggregate results ----------------------------------------------------

// CoAPPDR returns the overall CoAP delivery ratio, summed across sites.
func (nw *Network) CoAPPDR() metrics.Counter {
	if !nw.perSite {
		return nw.Series.Overall()
	}
	var tot metrics.Counter
	for _, s := range nw.series {
		o := s.Overall()
		tot.Sent += o.Sent
		tot.Delivered += o.Delivered
	}
	return tot
}

// MergedRTTs returns the network-wide RTT distribution: the shared CDF in
// serial and single-site runs, a merge of the per-site CDFs otherwise.
func (nw *Network) MergedRTTs() *metrics.CDF {
	if !nw.perSite {
		return nw.RTTs
	}
	m := &metrics.CDF{}
	for _, c := range nw.rtts {
		m.Merge(c)
	}
	return m
}

// MergedSeries returns the network-wide PDR time series (see MergedRTTs).
func (nw *Network) MergedSeries() *metrics.TimeSeries {
	if !nw.perSite {
		return nw.Series
	}
	m := metrics.NewTimeSeries(nw.Series.Bucket)
	for _, s := range nw.series {
		m.MergeFrom(s)
	}
	return m
}

// ConnLosses returns the number of link losses (supervision timeouts,
// counted once per link) since traffic started — connection-establishment
// collisions during setup are excluded, as the paper measures steady state.
func (nw *Network) ConnLosses() uint64 {
	return nw.rawConnLosses() - nw.lossBase
}

func (nw *Network) rawConnLosses() uint64 {
	var total uint64
	for _, n := range nw.Nodes {
		if n == nil {
			continue
		}
		total += n.Statconn.Stats().LinkLosses
	}
	return total
}

// IntervalRejects returns how many colliding-interval connections were
// rejected by subordinates (mitigation machinery activity).
func (nw *Network) IntervalRejects() uint64 {
	var total uint64
	for _, n := range nw.Nodes {
		if n == nil {
			continue
		}
		total += n.Statconn.Stats().IntervalRejects
	}
	return total
}

// LLPDR returns the network-wide link-layer delivery rate: data PDUs that
// did not need retransmission over all transmitted data PDUs.
func (nw *Network) LLPDR() float64 {
	var tx, retr uint64
	for _, n := range nw.Nodes {
		if n == nil {
			continue
		}
		for _, c := range n.Ctrl.Conns() {
			st := c.Stats()
			tx += st.TXPDUs - st.TXEmpty
			retr += st.Retrans
		}
	}
	if tx == 0 {
		return 1
	}
	return float64(tx-retr) / float64(tx)
}

// BufferDrops sums pktbuf/queue drops across nodes (the §5.2 loss process).
func (nw *Network) BufferDrops() uint64 {
	var total uint64
	for _, n := range nw.Nodes {
		if n == nil {
			continue
		}
		total += n.NetIf.Stats().QueueDrops + n.NetIf.Stats().LinkDrops
	}
	return total
}

// CoAPGiveUps sums the CON exchanges abandoned at MAX_RETRANSMIT across all
// endpoints (RFC 7252 give-ups, counted separately from plain losses).
func (nw *Network) CoAPGiveUps() uint64 {
	var total uint64
	for _, n := range nw.Nodes {
		if n == nil {
			continue
		}
		total += n.Coap.Stats().GiveUps
	}
	return total
}

// ReconnectLatencies aggregates every node's completed loss→re-up latencies
// into one CDF (seconds) by merging the per-node distributions. Nodes are
// visited in ID order, so the merged result is deterministic.
func (nw *Network) ReconnectLatencies() *metrics.CDF {
	cdf := &metrics.CDF{}
	for _, id := range nw.Cfg.Topology.Nodes() {
		cdf.Merge(nw.Nodes[id].Statconn.RecoveryDist())
	}
	return cdf
}

// NodeLinksUp reports whether every configured static link touching node id
// has its IPSP channel open — the churn experiment's recovery criterion.
func (nw *Network) NodeLinksUp(id int) bool {
	for _, l := range nw.Cfg.Topology.Links {
		if l.Coordinator != id && l.Subordinate != id {
			continue
		}
		subMAC := uint64(nw.Nodes[l.Subordinate].DevAddr())
		ch := nw.Nodes[l.Coordinator].NetIf.Channel(subMAC)
		if ch == nil || !ch.Open() {
			return false
		}
	}
	return true
}

// ---- fault.Target ----------------------------------------------------------
//
// Network implements fault.Target, so scripted fault plans (internal/fault)
// can be attached directly to an assembled testbed network.

// CrashNode powers a node off; all volatile state drops.
func (nw *Network) CrashNode(id int) { nw.Nodes[id].Stop() }

// RestartNode powers a crashed node back on from its provisioned config.
func (nw *Network) RestartNode(id int) { nw.Nodes[id].Restart() }

// SetBlackout switches the radio-wide all-channel interference on or off.
// Every medium (one per site in sharded builds) carries its own switch so
// the blackout covers the whole network either way.
func (nw *Network) SetBlackout(on bool) {
	for _, b := range nw.blackouts {
		b.Set(on)
	}
}

// SetJammer switches a blocking carrier on one channel on or off. Jammers
// are created on first use — one per medium — and stay attached (off)
// afterwards.
func (nw *Network) SetJammer(ch phy.Channel, on bool) {
	js, ok := nw.jammers[ch]
	if !ok {
		for _, m := range nw.Media {
			j := phy.NewSwitched(phy.Jammer{Ch: ch})
			m.AddInterference(j)
			js = append(js, j)
		}
		nw.jammers[ch] = js
	}
	for _, j := range js {
		j.Set(on)
	}
}

// KillLink abruptly terminates the BLE connection between two nodes on both
// ends — no graceful close handshake; statconn re-establishes the link.
func (nw *Network) KillLink(a, b int) {
	na, nb := nw.Nodes[a], nw.Nodes[b]
	if c := na.Ctrl.FindConn(nb.DevAddr()); c != nil {
		c.Kill()
	}
	if c := nb.Ctrl.FindConn(na.DevAddr()); c != nil {
		c.Kill()
	}
}

// UpstreamConn returns node id's connection toward its next hop to the
// consumer (its "upstream link", the subject of Fig. 12).
func (nw *Network) UpstreamConn(id int) *ble.Conn {
	hops := nw.Cfg.Topology.NextHops(id)
	parent, ok := hops[nw.consumerID]
	if !ok {
		return nil
	}
	return nw.Nodes[id].Ctrl.FindConn(nw.Nodes[parent].DevAddr())
}

// LLSeries returns the sampled link-layer PDR time series (Fig. 13b).
func (nw *Network) LLSeries() []float64 { return nw.llSeries.rates }

// llSampler periodically snapshots network-wide LL counters.
type llSampler struct {
	nw       *Network
	interval sim.Duration
	prevTX   uint64
	prevRt   uint64
	rates    []float64
}

func newLLSampler(nw *Network, interval sim.Duration) *llSampler {
	ls := &llSampler{nw: nw, interval: interval}
	var tick func()
	tick = func() {
		var tx, retr uint64
		for _, n := range nw.Nodes {
			if n == nil {
				continue
			}
			for _, c := range n.Ctrl.Conns() {
				st := c.Stats()
				tx += st.TXPDUs - st.TXEmpty
				retr += st.Retrans
			}
		}
		dTX := tx - ls.prevTX
		dRt := retr - ls.prevRt
		// Counters on closed connections vanish; clamp regressions.
		if tx < ls.prevTX {
			dTX, dRt = 0, 0
		}
		rate := 1.0
		if dTX > 0 {
			rate = float64(dTX-dRt) / float64(dTX)
		}
		ls.rates = append(ls.rates, rate)
		ls.prevTX, ls.prevRt = tx, retr
		nw.Sim.Post(interval, tick)
	}
	nw.Sim.Post(interval, tick)
	return ls
}
