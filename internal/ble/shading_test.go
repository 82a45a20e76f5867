package ble

import (
	"testing"

	"blemesh/internal/phy"
	"blemesh/internal/sim"
)

// shadingScenario builds the paper's minimal shading setup: node 0 is
// subordinate for two connections whose coordinators (nodes 1 and 2) run on
// clocks drifting in opposite directions. With identical connection
// intervals the two event series slide through each other and the single
// radio on node 0 must skip whole events — connection shading (§6.1).
//
// The drifts are exaggerated (±125 ppm, legal per the spec's 250 ppm bound)
// so a unit test can observe a full crossing quickly: crossing takes
// interval/relativeDrift = 75ms / 250µs/s = 300s of simulated time.
type shadingScenario struct {
	s       *sim.Sim
	nodes   []*testNode
	conns   []*Conn // node 0's two subordinate connections
	losses  int
	reasons []LossReason
}

func buildShading(t *testing.T, seed int64, itvlA, itvlB sim.Duration, arb Arbitration) *shadingScenario {
	t.Helper()
	s := sim.New(seed)
	m := phy.NewMedium(s)
	ppm := []float64{0, +125, -125}
	sc := &shadingScenario{s: s}
	for i, p := range ppm {
		clk := sim.NewClock(s, p)
		radio := m.NewRadio()
		ctrl := NewController(s, clk, radio, ControllerConfig{
			Addr:        DevAddr(0xB0000 + i),
			Arbitration: arb,
			// Declared sleep-clock accuracy must bound the actual
			// drift, as the specification requires.
			SCA: 250,
		})
		sc.nodes = append(sc.nodes, &testNode{ctrl: ctrl, radio: radio, clk: clk})
	}
	hub := sc.nodes[0]
	hub.ctrl.OnConnect = func(c *Conn) { sc.conns = append(sc.conns, c) }
	hub.ctrl.OnDisconnect = func(c *Conn, r LossReason) {
		sc.losses++
		sc.reasons = append(sc.reasons, r)
	}
	hub.ctrl.StartAdvertising(AdvParams{Interval: 90 * sim.Millisecond, DataLen: 11})

	// Supervision of 10 intervals (NimBLE-like). With the exaggerated
	// ±125ppm drift a starvation episode lasts ~15 events, which must
	// exceed the supervision timeout for the loss to trigger; at the
	// paper's measured 6µs/s relative drift an episode lasts ~800 events
	// and kills any realistic timeout.
	pa := ConnParams{Interval: itvlA, Supervision: 750 * sim.Millisecond}
	pb := ConnParams{Interval: itvlB, Supervision: 750 * sim.Millisecond}
	if err := pa.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := pb.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := sc.nodes[1].ctrl.Connect(hub.ctrl.Addr(), pa); err != nil {
		t.Fatal(err)
	}
	// The second coordinator connects once the first link is up (the hub
	// must re-advertise after its first connection).
	s.After(2*sim.Second, func() {
		hub.ctrl.StartAdvertising(AdvParams{Interval: 90 * sim.Millisecond, DataLen: 11})
		if err := sc.nodes[2].ctrl.Connect(hub.ctrl.Addr(), pb); err != nil {
			t.Error(err)
		}
	})
	// Wait for both connections.
	deadline := s.Now() + 20*sim.Second
	for s.Now() < deadline && len(sc.conns) < 2 {
		s.Run(s.Now() + 100*sim.Millisecond)
	}
	if len(sc.conns) < 2 {
		t.Fatalf("hub established %d/2 connections", len(sc.conns))
	}
	return sc
}

func TestConnectionShadingCausesLoss(t *testing.T) {
	// Identical 75ms intervals on both connections: within 600s the
	// anchors must cross at least once and starve one connection past
	// its supervision timeout (paper §6.1: random connection drops).
	sc := buildShading(t, 42, 75*sim.Millisecond, 75*sim.Millisecond, ArbitrateSkip)
	sc.s.Run(sc.s.Now() + 600*sim.Second)
	if sc.losses == 0 {
		t.Fatal("no connection loss under shading conditions (static equal intervals)")
	}
	foundSup := false
	for _, r := range sc.reasons {
		if r == LossSupervision {
			foundSup = true
		}
	}
	if !foundSup {
		t.Fatalf("losses %v never due to supervision timeout", sc.reasons)
	}
	// The shading footprint: a run of skipped events on the hub. One
	// starvation episode lasts about one supervision timeout: 750ms at a
	// 75ms interval is ~10 consecutively skipped events.
	skips := sc.nodes[0].ctrl.Scheduler().Stats().Skips
	if skips < 8 {
		t.Fatalf("only %d skipped events on the hub — shading not reproduced", skips)
	}
}

func TestRandomizedIntervalsPreventShadingLoss(t *testing.T) {
	// The paper's mitigation (§6.3): distinct intervals per connection.
	// 65ms vs 85ms — no shading, no supervision losses in the same 600s
	// window that kills the static configuration.
	sc := buildShading(t, 42, 65*sim.Millisecond, 85*sim.Millisecond, ArbitrateSkip)
	sc.s.Run(sc.s.Now() + 600*sim.Second)
	for _, r := range sc.reasons {
		if r == LossSupervision {
			t.Fatalf("supervision loss despite distinct intervals: %v", sc.reasons)
		}
	}
}

func TestAlternateArbitrationSurvivesShading(t *testing.T) {
	// The paper's choice (ii): overlapping events alternate instead of
	// one connection starving. Capacity halves but nothing dies.
	sc := buildShading(t, 42, 75*sim.Millisecond, 75*sim.Millisecond, ArbitrateAlternate)
	sc.s.Run(sc.s.Now() + 600*sim.Second)
	for _, r := range sc.reasons {
		if r == LossSupervision {
			t.Fatalf("supervision loss under alternate arbitration: %v", sc.reasons)
		}
	}
	if sc.nodes[0].ctrl.Scheduler().Stats().Preempts == 0 {
		t.Fatal("alternate arbitration never preempted — overlap not exercised")
	}
}

func TestShadingDegradesLinkPDRBeforeLoss(t *testing.T) {
	// Fig. 12: while the anchors converge, the shaded connection's
	// subordinate skips a growing share of events, visible as skipped
	// events and coordinator-side retransmissions/empty polls.
	sc := buildShading(t, 7, 75*sim.Millisecond, 75*sim.Millisecond, ArbitrateSkip)
	sc.s.Run(sc.s.Now() + 600*sim.Second)
	var skipped, planned uint64
	for _, c := range sc.conns {
		st := c.Stats()
		skipped += st.EventsSkipped
		planned += st.EventsPlanned
	}
	if planned == 0 || skipped == 0 {
		t.Fatalf("planned=%d skipped=%d — no shading footprint", planned, skipped)
	}
}

func TestWindowWideningKeepsSingleLinkAliveUnderDrift(t *testing.T) {
	// Ablation control: one connection, worst-case legal drift on both
	// clocks. Window widening must keep the subordinate synced.
	s := sim.New(11)
	m := phy.NewMedium(s)
	mk := func(ppm float64, addr int) *testNode {
		clk := sim.NewClock(s, ppm)
		radio := m.NewRadio()
		ctrl := NewController(s, clk, radio, ControllerConfig{Addr: DevAddr(addr), SCA: 250})
		return &testNode{ctrl: ctrl, radio: radio, clk: clk}
	}
	a, b := mk(+250, 0xC1), mk(-250, 0xC2)
	lost := false
	a.ctrl.OnDisconnect = func(*Conn, LossReason) { lost = true }
	b.ctrl.OnDisconnect = func(*Conn, LossReason) { lost = true }
	p := ConnParams{Interval: 75 * sim.Millisecond, CoordSCA: 250}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	a.ctrl.StartAdvertising(AdvParams{Interval: 90 * sim.Millisecond})
	if err := b.ctrl.Connect(a.ctrl.Addr(), p); err != nil {
		t.Fatal(err)
	}
	s.Run(s.Now() + 120*sim.Second)
	if lost {
		t.Fatal("single link with window widening died under 500ppm relative drift")
	}
}

func TestWindowWideningDisabledLosesSync(t *testing.T) {
	// Ablation: with widening off and real drift, the subordinate's
	// listen window misses the coordinator and the link dies.
	s := sim.New(12)
	m := phy.NewMedium(s)
	mk := func(ppm float64, addr int) *testNode {
		clk := sim.NewClock(s, ppm)
		radio := m.NewRadio()
		ctrl := NewController(s, clk, radio, ControllerConfig{
			Addr: DevAddr(addr), DisableWindowWidening: true,
		})
		return &testNode{ctrl: ctrl, radio: radio, clk: clk}
	}
	// Subordinate slow, coordinator fast: the coordinator's packets walk
	// ahead (earlier) of the subordinate's listen window, the direction a
	// bare ±32µs window cannot tolerate.
	a, b := mk(-250, 0xD1), mk(+250, 0xD2)
	lost := false
	a.ctrl.OnDisconnect = func(*Conn, LossReason) { lost = true }
	b.ctrl.OnDisconnect = func(*Conn, LossReason) { lost = true }
	p := ConnParams{Interval: 75 * sim.Millisecond}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	a.ctrl.StartAdvertising(AdvParams{Interval: 90 * sim.Millisecond})
	if err := b.ctrl.Connect(a.ctrl.Addr(), p); err != nil {
		t.Fatal(err)
	}
	s.Run(s.Now() + 120*sim.Second)
	if !lost {
		t.Fatal("link survived 500ppm relative drift without window widening")
	}
}

func TestCapacitySplitMatchesRelativeAnchorPosition(t *testing.T) {
	// §6.1's example: a node coordinating connection A and subordinate on
	// connection B has A's usable event length bounded by B's next
	// anchor. Anchors are placed directly (bypassing the randomised
	// transmit window) so the split is deterministic: B's anchor 30ms
	// after A's leaves A ~40% of each 75ms interval.
	measure := func(withB bool, offset sim.Duration) int {
		s := sim.New(21)
		m := phy.NewMedium(s)
		mk := func(ppm float64, addr int) *testNode {
			clk := sim.NewClock(s, ppm)
			radio := m.NewRadio()
			ctrl := NewController(s, clk, radio, ControllerConfig{Addr: DevAddr(addr), PoolBytes: 1 << 20})
			return &testNode{ctrl: ctrl, radio: radio, clk: clk}
		}
		hub := mk(0, 0xE0)
		peerA := mk(1, 0xE1)
		peerB := mk(-1, 0xE2)
		delivered := 0
		p := ConnParams{Interval: 75 * sim.Millisecond}
		if err := p.Validate(); err != nil {
			panic(err)
		}
		t0 := sim.Time(10 * sim.Millisecond)
		// Connection A: hub coordinates, peerA subordinate.
		connA := newConn(hub.ctrl, Coordinator, peerA.ctrl.Addr(), p, 0x1111, 7, t0)
		hub.ctrl.conns = append(hub.ctrl.conns, connA)
		subA := newConn(peerA.ctrl, Subordinate, hub.ctrl.Addr(), p, 0x1111, 7, t0)
		peerA.ctrl.conns = append(peerA.ctrl.conns, subA)
		subA.OnData = func(_ LLID, _ []byte, _ uint64) { delivered++ }
		if withB {
			// Connection B: hub subordinate, peerB coordinates.
			coordB := newConn(peerB.ctrl, Coordinator, hub.ctrl.Addr(), p, 0x2222, 9, t0+offset)
			peerB.ctrl.conns = append(peerB.ctrl.conns, coordB)
			subB := newConn(hub.ctrl, Subordinate, peerB.ctrl.Addr(), p, 0x2222, 9, t0+offset)
			hub.ctrl.conns = append(hub.ctrl.conns, subB)
		}
		// Saturate connection A.
		var pump func()
		pump = func() {
			if connA.Closed() {
				return
			}
			for connA.QueueLen() < 32 {
				if !connA.Send(LLIDDataStart, make([]byte, MaxDataLen), 0, nil) {
					break
				}
			}
			s.After(10*sim.Millisecond, pump)
		}
		s.After(0, pump)
		s.Run(30 * sim.Second)
		return delivered
	}
	solo := measure(false, 0)
	shared := measure(true, 30*sim.Millisecond)
	if solo == 0 {
		t.Fatal("no throughput on single connection")
	}
	ratio := float64(shared) / float64(solo)
	if ratio > 0.65 {
		t.Fatalf("B at +30ms should leave A ≤ ~50%% of the interval: solo=%d shared=%d ratio=%.2f",
			solo, shared, ratio)
	}
	if ratio < 0.2 {
		t.Fatalf("capacity collapsed more than geometry allows: ratio=%.2f", ratio)
	}
	// A larger offset must leave more capacity — the split follows the
	// relative anchor position (Fig. 4).
	wide := measure(true, 60*sim.Millisecond)
	if wide <= shared {
		t.Fatalf("offset 60ms (%d) should beat offset 30ms (%d)", wide, shared)
	}
}

func TestThroughputBaselineNearPaperValue(t *testing.T) {
	// §5.2: "close to 500kbps raw L2CAP throughput on a single link".
	// At the LL with DLE (251-byte PDUs) and a 75ms interval the loaded
	// link must move at least ~400kbps of LL payload.
	s := sim.New(33)
	m := phy.NewMedium(s)
	mk := func(ppm float64, addr int) *testNode {
		clk := sim.NewClock(s, ppm)
		radio := m.NewRadio()
		ctrl := NewController(s, clk, radio, ControllerConfig{Addr: DevAddr(addr), PoolBytes: 1 << 20})
		return &testNode{ctrl: ctrl, radio: radio, clk: clk}
	}
	a, b := mk(0.5, 0xF1), mk(-0.5, 0xF2)
	bytesRx := 0
	a.ctrl.OnConnect = func(c *Conn) {
		c.OnData = func(_ LLID, p []byte, _ uint64) { bytesRx += len(p) }
	}
	var coord *Conn
	b.ctrl.OnConnect = func(c *Conn) { coord = c }
	p := ConnParams{Interval: 75 * sim.Millisecond}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	a.ctrl.StartAdvertising(AdvParams{Interval: 90 * sim.Millisecond})
	b.ctrl.Connect(a.ctrl.Addr(), p)
	s.Run(s.Now() + 3*sim.Second)
	if coord == nil {
		t.Fatal("no connection")
	}
	var pump func()
	pump = func() {
		if coord.Closed() {
			return
		}
		for coord.QueueLen() < 64 {
			if !coord.Send(LLIDDataStart, make([]byte, MaxDataLen), 0, nil) {
				break
			}
		}
		s.After(5*sim.Millisecond, pump)
	}
	pump()
	start := s.Now()
	startBytes := bytesRx
	s.Run(s.Now() + 10*sim.Second)
	kbps := float64(bytesRx-startBytes) * 8 / (s.Now() - start).Seconds() / 1000
	if kbps < 400 {
		t.Fatalf("saturated single-link LL throughput = %.0f kbps, want ≥ 400", kbps)
	}
	if kbps > 800 {
		t.Fatalf("throughput %.0f kbps implausibly high for 1Mbps PHY with IFS overhead", kbps)
	}
}
