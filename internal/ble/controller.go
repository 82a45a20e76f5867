package ble

import (
	"fmt"
	"math/rand"

	"blemesh/internal/phy"
	"blemesh/internal/sim"
	"blemesh/internal/trace"
)

// ControllerConfig parameterises one node's BLE controller.
type ControllerConfig struct {
	// Addr is the node's device address.
	Addr DevAddr
	// SCA is the node's declared sleep-clock accuracy in ppm (the value
	// advertised to peers for window widening, not the actual drift).
	SCA float64
	// PoolBytes is the shared LL transmit buffer pool, NimBLE's msys
	// pool; the paper's configuration uses 6600 bytes.
	PoolBytes int
	// Arbitration selects the radio scheduler policy.
	Arbitration Arbitration
	// DisableWindowWidening turns subordinate window widening off
	// (ablation only — real controllers must implement it).
	DisableWindowWidening bool
	// ExchangeGap models host/controller processing time per data PDU
	// exchanged: the extra delay before the coordinator starts the next
	// exchange of the same connection event after data moved. Calibrated
	// so a saturated single link sustains ≈500 kbps of LL payload, the
	// figure the paper measures for RIOT+NimBLE on nRF52 (§5.2). Set to
	// a negative value for an ideal controller (no gap).
	ExchangeGap sim.Duration
}

// DefaultExchangeGap reproduces the paper's single-link throughput.
const DefaultExchangeGap = 1500 * sim.Microsecond

func (cfg *ControllerConfig) defaults() {
	if cfg.SCA == 0 {
		cfg.SCA = 50
	}
	if cfg.PoolBytes == 0 {
		cfg.PoolBytes = 6600
	}
	if cfg.ExchangeGap == 0 {
		cfg.ExchangeGap = DefaultExchangeGap
	} else if cfg.ExchangeGap < 0 {
		cfg.ExchangeGap = 0
	}
}

// AdvParams configures advertising.
type AdvParams struct {
	// Interval is the advertising interval; the controller adds the
	// specification's 0..10ms pseudo-random advDelay to each event.
	Interval sim.Duration
	// DataLen is the advertising payload size (flags + IPSS UUID etc.).
	DataLen int
}

// ScanParams configures scanning/initiating.
type ScanParams struct {
	// Interval and Window control the scan duty cycle. The paper uses
	// 100ms/100ms, i.e. continuous scanning whenever the radio is free.
	Interval sim.Duration
	Window   sim.Duration
}

// ControllerEvents counts controller-level occurrences for the experiment
// harness and the energy model.
type ControllerEvents struct {
	ConnEvents    uint64 // connection events serviced as coordinator
	ConnEventsSub uint64 // connection events serviced as subordinate
	AdvEvents     uint64 // advertising events (3-channel sweeps)
	ConnectsTX    uint64 // CONNECT_INDs transmitted
	ConnsOpened   uint64
	ConnsLost     uint64 // lost to supervision timeout
	ConnsClosed   uint64 // terminated deliberately
	PoolExhausted uint64 // Send rejected: LL buffer pool full
	AdvReceived   uint64 // ADV_INDs seen while scanning
}

// pool is a byte-budget allocator modelling a fixed buffer pool.
type pool struct {
	capacity int
	used     int
	peak     int
}

func (p *pool) alloc(n int) bool {
	if p.used+n > p.capacity {
		return false
	}
	p.used += n
	if p.used > p.peak {
		p.peak = p.used
	}
	return true
}

func (p *pool) free(n int) {
	p.used -= n
	if p.used < 0 {
		panic("ble: pool underflow")
	}
}

// ConnLossFunc notifies the host of a terminated connection.
type ConnLossFunc func(c *Conn, reason LossReason)

// ConnUpFunc notifies the host of a new connection.
type ConnUpFunc func(c *Conn)

// Controller is one node's BLE controller: the single radio, its scheduler,
// the set of active connections, and the advertising/scanning machinery.
type Controller struct {
	s     *sim.Sim
	clk   *sim.Clock
	radio *phy.Radio
	cfg   ControllerConfig
	addr  DevAddr
	sched Scheduler
	pool  pool
	rng   *rand.Rand

	// Connection table: a small slice, since a BLE node sustains a handful
	// of links and a linear scan beats hashing at that size. New
	// connections append, so the list stays ordered by handle (handles
	// only ever grow) and Conns and Shutdown's teardown see handle order.
	conns   []*Conn
	handles int

	// freeItems recycles txItem structs across all connections so the
	// steady-state data path does not allocate per queued payload.
	freeItems []*txItem

	// Advertising state.
	advOn     bool
	advParams AdvParams
	advAct    *Activity
	advWake   sim.Timer
	advNext   sim.Time
	advStop   bool // mid-event stop request

	// Scanning / initiating state.
	scanOn      bool
	scanParams  ScanParams
	scanTargets []scanTarget
	scanCh      phy.Channel
	scanRotate  sim.Timer
	connecting  bool
	initAct     *Activity // radio claim of an in-progress CONNECT_IND

	// Receive dispatch: whoever currently listens installs its handler.
	rxHandler      phy.Receiver
	carrierHandler phy.CarrierFunc

	// epoch invalidates in-flight advertising/initiating continuations
	// across a Shutdown: closures capture it at schedule time and bail if
	// the controller has been reset since.
	epoch int

	events ControllerEvents

	// Flight-recorder wiring: connections emit LL span events (ll-tx,
	// ll-rx, event-skipped, link-reset drops) into tr under the node name.
	tr   *trace.Log
	node string

	// OnConnect fires when a connection is established (either role).
	OnConnect ConnUpFunc
	// OnDisconnect fires when a connection ends for any reason.
	OnDisconnect ConnLossFunc
}

// SetTrace wires the controller (and every current and future connection)
// to a shared trace log, emitting under the given node name.
func (ctrl *Controller) SetTrace(l *trace.Log, node string) {
	ctrl.tr = l
	ctrl.node = node
}

// NewController creates a controller bound to a radio and a local clock.
func NewController(s *sim.Sim, clk *sim.Clock, radio *phy.Radio, cfg ControllerConfig) *Controller {
	ctrl := new(Controller)
	NewControllerInto(ctrl, s, clk, radio, cfg)
	return ctrl
}

// NewControllerInto initializes a controller in place (arena-backed
// construction).
func NewControllerInto(ctrl *Controller, s *sim.Sim, clk *sim.Clock, radio *phy.Radio, cfg ControllerConfig) {
	cfg.defaults()
	*ctrl = Controller{
		s:     s,
		clk:   clk,
		radio: radio,
		cfg:   cfg,
		addr:  cfg.Addr,
		sched: Scheduler{sim: s, mode: cfg.Arbitration},
		pool:  pool{capacity: cfg.PoolBytes},
		rng:   s.Rand(),
	}
	radio.SetReceiver(ctrl.dispatchRx)
	radio.SetCarrier(ctrl.dispatchCarrier)
}

// scanTarget is one pending connection target.
type scanTarget struct {
	peer   DevAddr
	params ConnParams
}

// ---- Connection table ----------------------------------------------------

// dropConn removes c from the table, reporting whether it was present.
func (ctrl *Controller) dropConn(c *Conn) bool {
	for i, x := range ctrl.conns {
		if x == c {
			ctrl.conns = append(ctrl.conns[:i], ctrl.conns[i+1:]...)
			return true
		}
	}
	return false
}

func (ctrl *Controller) connLive(c *Conn) bool {
	for _, x := range ctrl.conns {
		if x == c {
			return true
		}
	}
	return false
}

// ---- Scan targets --------------------------------------------------------

func (ctrl *Controller) targetSet(peer DevAddr, p ConnParams) {
	for i := range ctrl.scanTargets {
		if ctrl.scanTargets[i].peer == peer {
			ctrl.scanTargets[i].params = p
			return
		}
	}
	ctrl.scanTargets = append(ctrl.scanTargets, scanTarget{peer: peer, params: p})
}

func (ctrl *Controller) targetGet(peer DevAddr) (ConnParams, bool) {
	for i := range ctrl.scanTargets {
		if ctrl.scanTargets[i].peer == peer {
			return ctrl.scanTargets[i].params, true
		}
	}
	return ConnParams{}, false
}

func (ctrl *Controller) targetDel(peer DevAddr) {
	for i := range ctrl.scanTargets {
		if ctrl.scanTargets[i].peer == peer {
			ctrl.scanTargets = append(ctrl.scanTargets[:i], ctrl.scanTargets[i+1:]...)
			return
		}
	}
}

// Addr returns the controller's device address.
func (ctrl *Controller) Addr() DevAddr { return ctrl.addr }

// Events returns a copy of the controller counters.
func (ctrl *Controller) Events() ControllerEvents { return ctrl.events }

// Scheduler exposes the radio scheduler (read-mostly: stats, arbitration).
func (ctrl *Controller) Scheduler() *Scheduler { return &ctrl.sched }

// PoolUsed returns current and peak LL pool occupancy in bytes.
func (ctrl *Controller) PoolUsed() (used, peak int) { return ctrl.pool.used, ctrl.pool.peak }

// Conns returns the active connections in handle order.
func (ctrl *Controller) Conns() []*Conn {
	out := make([]*Conn, len(ctrl.conns))
	copy(out, ctrl.conns)
	return out
}

// FindConn returns the connection to peer, or nil.
func (ctrl *Controller) FindConn(peer DevAddr) *Conn {
	for _, c := range ctrl.conns {
		if c.peer == peer {
			return c
		}
	}
	return nil
}

func (ctrl *Controller) sim() *sim.Sim { return ctrl.s }

// Clock returns the node's local clock.
func (ctrl *Controller) Clock() *sim.Clock { return ctrl.clk }

func (ctrl *Controller) nextHandle() int {
	ctrl.handles++
	return ctrl.handles
}

func (ctrl *Controller) setRx(rx phy.Receiver, carrier phy.CarrierFunc) {
	ctrl.rxHandler = rx
	ctrl.carrierHandler = carrier
}

func (ctrl *Controller) clearRx() {
	ctrl.rxHandler = nil
	ctrl.carrierHandler = nil
}

func (ctrl *Controller) dispatchRx(pkt phy.Packet, ch phy.Channel, ok bool) {
	if ctrl.rxHandler != nil {
		ctrl.rxHandler(pkt, ch, ok)
	}
}

func (ctrl *Controller) dispatchCarrier(ch phy.Channel, end sim.Time) {
	if ctrl.carrierHandler != nil {
		ctrl.carrierHandler(ch, end)
	}
}

func (ctrl *Controller) removeConn(c *Conn, reason LossReason) {
	if !ctrl.dropConn(c) {
		return
	}
	ctrl.sched.Unregister(c.act)
	if reason == LossSupervision {
		ctrl.events.ConnsLost++
	} else {
		ctrl.events.ConnsClosed++
	}
	if ctrl.OnDisconnect != nil {
		ctrl.OnDisconnect(c, reason)
	}
}

// ---- Advertising ---------------------------------------------------------

// StartAdvertising begins periodic connectable advertising (ADV_IND sweeps
// over channels 37/38/39) until a CONNECT_IND arrives or the host stops it.
func (ctrl *Controller) StartAdvertising(p AdvParams) {
	if p.Interval <= 0 {
		p.Interval = 100 * sim.Millisecond
	}
	if ctrl.advOn {
		ctrl.advParams = p
		return
	}
	ctrl.advOn = true
	ctrl.advStop = false
	ctrl.advParams = p
	ctrl.advAct = &Activity{
		Name:       "adv",
		NextAnchor: func() sim.Time { return ctrl.advNext },
		OnPreempt:  ctrl.advPreempted,
	}
	ctrl.sched.Register(ctrl.advAct)
	ctrl.scheduleAdvEvent(ctrl.clk.ToSim(sim.Duration(ctrl.rng.Int63n(int64(p.Interval)))))
}

// StopAdvertising stops advertising after the current event, if any.
func (ctrl *Controller) StopAdvertising() {
	if !ctrl.advOn {
		return
	}
	ctrl.advOn = false
	ctrl.advStop = true
	ctrl.s.Cancel(ctrl.advWake)
	ctrl.advWake = sim.Timer{}
	if ctrl.advAct != nil && !ctrl.sched.Owns(ctrl.advAct) {
		ctrl.sched.Unregister(ctrl.advAct)
		ctrl.advAct = nil
	}
}

func (ctrl *Controller) scheduleAdvEvent(delay sim.Duration) {
	// advDelay: 0..10ms pseudo-random per the specification.
	jitter := sim.Duration(ctrl.rng.Int63n(int64(10 * sim.Millisecond)))
	d := delay + ctrl.clk.ToSim(jitter)
	ctrl.advNext = ctrl.s.Now() + d
	ctrl.advWake = ctrl.s.After(d, ctrl.advEvent)
}

// advEvent performs one advertising event: ADV_IND on 37, 38, 39, listening
// after each PDU for a CONNECT_IND.
func (ctrl *Controller) advEvent() {
	ctrl.advWake = sim.Timer{}
	if !ctrl.advOn {
		return
	}
	// An advertising event occupies the radio for three PDUs plus listen
	// gaps — bounded well under 10ms.
	maxEnd := ctrl.s.Now() + 10*sim.Millisecond
	if _, ok := ctrl.sched.Acquire(ctrl.advAct, maxEnd); !ok {
		// Radio busy (e.g. a connection event): skip this round.
		ctrl.scheduleAdvEvent(ctrl.clk.ToSim(ctrl.advParams.Interval))
		return
	}
	ctrl.events.AdvEvents++
	ctrl.advChannelStep(phy.AdvChannel37)
}

// advChannelStep transmits ADV_IND on ch and listens briefly for CONNECT_IND.
func (ctrl *Controller) advChannelStep(ch phy.Channel) {
	if ctrl.advStop {
		ctrl.finishAdvEvent(false)
		return
	}
	epoch := ctrl.epoch
	pdu := &AdvPDU{Type: PDUAdvInd, Adv: ctrl.addr, DataLen: ctrl.advParams.DataLen}
	air := pdu.AdvAirtime()
	ctrl.radio.Transmit(ch, phy.Packet{Bits: int(air / ByteTime * 8), Payload: pdu}, air, func() {
		if ctrl.epoch != epoch || !ctrl.sched.Owns(ctrl.advAct) {
			return // preempted mid-event or controller reset
		}
		// Listen one IFS + CONNECT_IND airtime for an initiator.
		ctrl.radio.StartListen(ch)
		deadline := ctrl.s.Now() + IFS + CarrierMargin
		var timeout sim.Timer
		ctrl.setRx(func(pkt phy.Packet, _ phy.Channel, ok bool) {
			ci, is := pkt.Payload.(*AdvPDU)
			if !ok || !is || ci.Type != PDUConnectInd || ci.Adv != ctrl.addr {
				return
			}
			ctrl.s.Cancel(timeout)
			ctrl.radio.StopListen()
			ctrl.clearRx()
			// The advertising event ends here: hand the radio back
			// before the connection starts scheduling its events.
			ctrl.sched.Release(ctrl.advAct)
			ctrl.acceptConnection(ci)
		}, func(_ phy.Channel, end sim.Time) {
			ctrl.s.Cancel(timeout)
			timeout = ctrl.s.At(end+sim.Microsecond, func() {
				if ctrl.epoch == epoch {
					ctrl.advStepDone(ch)
				}
			})
		})
		timeout = ctrl.s.At(deadline, func() {
			if ctrl.epoch == epoch {
				ctrl.advStepDone(ch)
			}
		})
	})
}

// advPreempted stops the in-progress advertising event when another
// activity takes the radio (alternate arbitration only).
func (ctrl *Controller) advPreempted() {
	switch ctrl.radio.State() {
	case phy.RadioRX:
		ctrl.radio.StopListen()
	case phy.RadioTX:
		ctrl.radio.AbortTX()
	}
	ctrl.clearRx()
	if ctrl.advOn {
		ctrl.scheduleAdvEvent(ctrl.clk.ToSim(ctrl.advParams.Interval))
	}
}

func (ctrl *Controller) advStepDone(ch phy.Channel) {
	if !ctrl.sched.Owns(ctrl.advAct) {
		return // preempted mid-event
	}
	ctrl.radio.StopListen()
	ctrl.clearRx()
	switch ch {
	case phy.AdvChannel37:
		ctrl.advChannelStep(phy.AdvChannel38)
	case phy.AdvChannel38:
		ctrl.advChannelStep(phy.AdvChannel39)
	default:
		ctrl.finishAdvEvent(true)
	}
}

func (ctrl *Controller) finishAdvEvent(reschedule bool) {
	ctrl.sched.Release(ctrl.advAct)
	if ctrl.advStop || !ctrl.advOn {
		if ctrl.advAct != nil {
			ctrl.sched.Unregister(ctrl.advAct)
			ctrl.advAct = nil
		}
		return
	}
	if reschedule {
		ctrl.scheduleAdvEvent(ctrl.clk.ToSim(ctrl.advParams.Interval))
	}
}

// acceptConnection creates the subordinate endpoint from a CONNECT_IND.
func (ctrl *Controller) acceptConnection(ci *AdvPDU) {
	ctrl.StopAdvertising()
	anchor0 := ctrl.s.Now() + TransmitWindowDelay + ci.WinOffset
	c := newConn(ctrl, Subordinate, ci.Init, ci.Params, accessFromAddrs(ci.Init, ci.Adv), ci.Hop, anchor0)
	ctrl.conns = append(ctrl.conns, c)
	ctrl.events.ConnsOpened++
	if ctrl.OnConnect != nil {
		ctrl.OnConnect(c)
	}
}

// ---- Scanning / initiating -------------------------------------------------

// Connect registers peer as a connection target: the controller scans for
// its advertisements and initiates with the given parameters. Multiple
// targets may be pending; each is connected as its ADV_IND is heard.
func (ctrl *Controller) Connect(peer DevAddr, params ConnParams) error {
	if err := params.Validate(); err != nil {
		return err
	}
	params.CoordSCA = ctrl.cfg.SCA
	ctrl.targetSet(peer, params)
	ctrl.ensureScanning()
	return nil
}

// CancelConnect removes a pending connection target.
func (ctrl *Controller) CancelConnect(peer DevAddr) {
	ctrl.targetDel(peer)
	if len(ctrl.scanTargets) == 0 {
		ctrl.stopScanning()
	}
}

// SetScanParams configures the scan duty cycle (before or while scanning).
func (ctrl *Controller) SetScanParams(p ScanParams) {
	if p.Interval <= 0 {
		p.Interval = 100 * sim.Millisecond
	}
	if p.Window <= 0 || p.Window > p.Interval {
		p.Window = p.Interval
	}
	ctrl.scanParams = p
}

func (ctrl *Controller) ensureScanning() {
	if ctrl.scanOn || len(ctrl.scanTargets) == 0 {
		return
	}
	if ctrl.scanParams.Interval == 0 {
		ctrl.SetScanParams(ScanParams{})
	}
	ctrl.scanOn = true
	ctrl.scanCh = phy.AdvChannel37
	ctrl.sched.SetFiller(ctrl.scanResume, ctrl.scanPause)
	ctrl.scanRotate = ctrl.s.After(ctrl.clk.ToSim(ctrl.scanParams.Interval), ctrl.rotateScanChannel)
}

func (ctrl *Controller) stopScanning() {
	if !ctrl.scanOn {
		return
	}
	ctrl.scanOn = false
	ctrl.sched.ClearFiller()
	ctrl.s.Cancel(ctrl.scanRotate)
	ctrl.scanRotate = sim.Timer{}
}

func (ctrl *Controller) rotateScanChannel() {
	if !ctrl.scanOn {
		return
	}
	switch ctrl.scanCh {
	case phy.AdvChannel37:
		ctrl.scanCh = phy.AdvChannel38
	case phy.AdvChannel38:
		ctrl.scanCh = phy.AdvChannel39
	default:
		ctrl.scanCh = phy.AdvChannel37
	}
	if ctrl.radio.State() == phy.RadioRX && !ctrl.connecting {
		ctrl.radio.StartListen(ctrl.scanCh)
	}
	ctrl.scanRotate = ctrl.s.After(ctrl.clk.ToSim(ctrl.scanParams.Interval), ctrl.rotateScanChannel)
}

// scanResume is the scheduler filler start hook: listen on the current
// advertising channel whenever the radio is otherwise idle.
func (ctrl *Controller) scanResume() {
	if !ctrl.scanOn || ctrl.connecting {
		return
	}
	if ctrl.radio.State() == phy.RadioTX {
		// A packet of a dying activity is still in flight; scanning
		// resumes at the next radio hand-back.
		return
	}
	ctrl.radio.StartListen(ctrl.scanCh)
	ctrl.setRx(ctrl.scanRx, nil)
}

// scanPause is the scheduler filler stop hook.
func (ctrl *Controller) scanPause() {
	if ctrl.connecting {
		return
	}
	if ctrl.radio.State() == phy.RadioRX {
		ctrl.radio.StopListen()
	}
	ctrl.clearRx()
}

// scanRx reacts to advertisements from pending targets by initiating.
func (ctrl *Controller) scanRx(pkt phy.Packet, ch phy.Channel, ok bool) {
	adv, is := pkt.Payload.(*AdvPDU)
	if !ok || !is || adv.Type != PDUAdvInd {
		return
	}
	ctrl.events.AdvReceived++
	params, want := ctrl.targetGet(adv.Adv)
	if !want || ctrl.connecting {
		return
	}
	// Acquire the radio as a real activity for the CONNECT_IND exchange.
	initAct := &Activity{Name: "initiate"}
	if _, granted := ctrl.sched.Acquire(initAct, ctrl.s.Now()+5*sim.Millisecond); !granted {
		return
	}
	ctrl.initAct = initAct
	ctrl.connecting = true
	// Window offset randomises where the first connection event lands —
	// from the subordinate's perspective the relative timing against its
	// other connections is arbitrary (§2.3 of the paper).
	units := int64(params.Interval / ConnIntervalUnit)
	winOffset := sim.Duration(ctrl.rng.Int63n(units)) * ConnIntervalUnit
	ci := &AdvPDU{
		Type:      PDUConnectInd,
		Adv:       adv.Adv,
		Init:      ctrl.addr,
		Params:    params,
		WinOffset: winOffset,
		Hop:       RandomHopIncrement(ctrl.rng),
	}
	air := ci.AdvAirtime()
	epoch := ctrl.epoch
	ctrl.s.Post(IFS, func() {
		if ctrl.epoch != epoch {
			return // controller reset while the CONNECT_IND was pending
		}
		ctrl.radio.Transmit(ch, phy.Packet{Bits: int(air / ByteTime * 8), Payload: ci}, air, func() {
			if ctrl.epoch != epoch {
				return
			}
			ctrl.events.ConnectsTX++
			ctrl.connecting = false
			ctrl.sched.Release(initAct)
			ctrl.initAct = nil
			ctrl.targetDel(adv.Adv)
			if len(ctrl.scanTargets) == 0 {
				ctrl.stopScanning()
			}
			anchor0 := ctrl.s.Now() + TransmitWindowDelay + winOffset
			c := newConn(ctrl, Coordinator, adv.Adv, params,
				accessFromAddrs(ctrl.addr, adv.Adv), ci.Hop, anchor0)
			ctrl.conns = append(ctrl.conns, c)
			ctrl.events.ConnsOpened++
			if ctrl.OnConnect != nil {
				ctrl.OnConnect(c)
			}
		})
	})
}

// Shutdown force-kills every link-layer activity, as a node crash would:
// all connections terminate silently (peers discover the loss through their
// supervision timeouts), advertising and scanning stop, pending connection
// targets are forgotten, and any in-flight advertising or initiating
// continuation is invalidated via the epoch counter. The controller object
// itself stays usable — a rebooted host starts from a clean slate.
func (ctrl *Controller) Shutdown() {
	ctrl.epoch++
	// Terminate connections in handle order so teardown side effects
	// consume the simulation RNG deterministically. The table is
	// append-only in handle order, so a snapshot already is sorted.
	for _, c := range ctrl.Conns() {
		if ctrl.connLive(c) {
			c.terminate(LossHostTerminated)
		}
	}
	ctrl.StopAdvertising()
	ctrl.connecting = false
	ctrl.scanTargets = ctrl.scanTargets[:0]
	ctrl.stopScanning()
	if ctrl.initAct != nil {
		ctrl.sched.Release(ctrl.initAct)
		ctrl.initAct = nil
	}
	if ctrl.advAct != nil {
		ctrl.sched.Release(ctrl.advAct)
		ctrl.sched.Unregister(ctrl.advAct)
		ctrl.advAct = nil
	}
	ctrl.clearRx()
	switch ctrl.radio.State() {
	case phy.RadioRX:
		ctrl.radio.StopListen()
	case phy.RadioTX:
		ctrl.radio.AbortTX()
	}
}

// accessFromAddrs derives a deterministic 32-bit access address for a
// connection between two devices. Real controllers draw it randomly; a
// deterministic hash keeps runs reproducible while seeding CSA#2 uniquely
// per pair.
func accessFromAddrs(a, b DevAddr) uint32 {
	h := uint64(0x9E3779B97F4A7C15)
	h ^= uint64(a)
	h *= 0xBF58476D1CE4E5B9
	h ^= uint64(b)
	h *= 0x94D049BB133111EB
	return uint32(h ^ h>>32)
}

// String identifies the controller in diagnostics.
func (ctrl *Controller) String() string {
	return fmt.Sprintf("ctrl(%s conns=%d)", ctrl.addr, len(ctrl.conns))
}

// PoolFree returns the bytes currently available in the LL buffer pool.
// Upper layers use it to avoid enqueueing a multi-fragment PDU that could
// only partially fit.
func (ctrl *Controller) PoolFree() int { return ctrl.pool.capacity - ctrl.pool.used }

// getItem takes a zeroed txItem from the controller-wide free list.
func (c *Controller) getItem() *txItem {
	if n := len(c.freeItems); n > 0 {
		it := c.freeItems[n-1]
		c.freeItems = c.freeItems[:n-1]
		return it
	}
	return &txItem{}
}

// putItem zeroes a txItem and returns it to the free list.
func (c *Controller) putItem(it *txItem) {
	*it = txItem{}
	c.freeItems = append(c.freeItems, it)
}
