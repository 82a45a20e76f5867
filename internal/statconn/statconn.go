// Package statconn implements the paper's static connection manager (§3):
// each node is statically told which BLE connections to maintain and in
// which role. Subordinate-role nodes advertise; coordinator-role nodes scan
// and initiate. The manager monitors connection health and reopens lost
// links, and it implements the paper's §6.3 mitigation: connection intervals
// randomized within a window, kept unique per node on both ends.
package statconn

import (
	"fmt"
	"math/rand"
	"sort"

	"blemesh/internal/ble"
	"blemesh/internal/metrics"
	"blemesh/internal/sim"
)

// IntervalPolicy selects connection intervals for new connections.
type IntervalPolicy interface {
	// Pick returns the interval for a new connection given the intervals
	// already in use on this node. Values are multiples of 1.25ms.
	Pick(rng *rand.Rand, used []sim.Duration) sim.Duration
	// EnforceUnique reports whether subordinates must reject connections
	// whose interval collides with an existing one (§6.3's second
	// enhancement — only meaningful for randomized policies).
	EnforceUnique() bool
	// String describes the policy (used in experiment reports).
	String() string
}

// Static is the standard BLE-mesh behaviour: every connection uses the same
// fixed interval. This is the configuration that suffers connection shading.
type Static struct{ Interval sim.Duration }

// Pick implements IntervalPolicy.
func (p Static) Pick(*rand.Rand, []sim.Duration) sim.Duration { return p.Interval }

// EnforceUnique implements IntervalPolicy: static deployments cannot avoid
// collisions, so no enforcement happens (matching stock BLE stacks).
func (p Static) EnforceUnique() bool { return false }

func (p Static) String() string { return fmt.Sprintf("static %v", p.Interval) }

// Random is the paper's mitigation: intervals drawn uniformly (in 1.25ms
// units) from [Min, Max], regenerated until unique among the node's
// connections. Subordinates close new connections whose interval collides
// with an existing one, forcing the coordinator to retry with a new draw.
type Random struct {
	Min, Max sim.Duration
}

// Pick implements IntervalPolicy.
func (p Random) Pick(rng *rand.Rand, used []sim.Duration) sim.Duration {
	lo := (p.Min + ble.ConnIntervalUnit - 1) / ble.ConnIntervalUnit
	hi := p.Max / ble.ConnIntervalUnit
	if hi < lo {
		hi = lo
	}
	for attempt := 0; ; attempt++ {
		v := sim.Duration(lo+sim.Time(rng.Int63n(int64(hi-lo+1)))) * ble.ConnIntervalUnit
		if attempt > 64 || !contains(used, v) {
			return v
		}
	}
}

// EnforceUnique implements IntervalPolicy.
func (p Random) EnforceUnique() bool { return true }

func (p Random) String() string {
	return fmt.Sprintf("random [%v:%v]", p.Min, p.Max)
}

// Renegotiate is the §6.3 design-space alternative the paper dismisses:
// every coordinator opens connections at the same Target interval (as a
// stock deployment would), and a subordinate that detects a collision asks
// for a different interval through the Connection Parameters Request
// procedure instead of closing the link. The coordinator accepts unless the
// proposed value collides among ITS OWN connections — the blind spot the
// paper points out: neither side can see the other's constraint set, so
// reconfigurations can be rejected or re-collide, and the procedure costs a
// round trip per attempt while shading continues.
type Renegotiate struct {
	Target sim.Duration
	// Window bounds the search for a free interval around Target
	// (default ±10ms).
	Window sim.Duration
}

// Pick implements IntervalPolicy: coordinators always propose the target.
func (p Renegotiate) Pick(*rand.Rand, []sim.Duration) sim.Duration { return p.Target }

// EnforceUnique implements IntervalPolicy: collisions are renegotiated, not
// rejected.
func (p Renegotiate) EnforceUnique() bool { return false }

func (p Renegotiate) String() string {
	return fmt.Sprintf("renegotiate around %v", p.Target)
}

func (p Renegotiate) window() sim.Duration {
	if p.Window == 0 {
		return 10 * sim.Millisecond
	}
	return p.Window
}

// pickFree returns an interval in the window that is unused locally, or 0.
func (p Renegotiate) pickFree(rng *rand.Rand, used []sim.Duration) sim.Duration {
	w := p.window()
	var free []sim.Duration
	for v := p.Target - w; v <= p.Target+w; v += ble.ConnIntervalUnit {
		if v < ble.MinConnInterval || v%ble.ConnIntervalUnit != 0 {
			continue
		}
		if !contains(used, v) {
			free = append(free, v)
		}
	}
	if len(free) == 0 {
		return 0
	}
	return free[rng.Intn(len(free))]
}

func contains(ds []sim.Duration, v sim.Duration) bool {
	for _, d := range ds {
		if d == v {
			return true
		}
	}
	return false
}

// Config parameterises a node's connection manager. Defaults follow the
// paper's setup (§4.2): 90ms advertising interval, 100ms scan interval and
// window, 75ms static connection interval.
type Config struct {
	AdvInterval  sim.Duration
	AdvDataLen   int
	ScanInterval sim.Duration
	ScanWindow   sim.Duration
	Policy       IntervalPolicy
	Supervision  sim.Duration
	Latency      int
	ChanMap      ble.ChannelMap
	CSA          int
	// BackoffCap bounds the exponential reconnect backoff window. The
	// initiation delay is drawn uniformly from [0, span) where span starts
	// at 3×AdvInterval and doubles per consecutive failed attempt up to
	// this cap (default 16 × 3×AdvInterval).
	BackoffCap sim.Duration
}

func (c *Config) defaults() {
	if c.AdvInterval == 0 {
		c.AdvInterval = 90 * sim.Millisecond
	}
	if c.AdvDataLen == 0 {
		c.AdvDataLen = 11 // flags + IPSS service data
	}
	if c.ScanInterval == 0 {
		c.ScanInterval = 100 * sim.Millisecond
	}
	if c.ScanWindow == 0 {
		c.ScanWindow = c.ScanInterval
	}
	if c.Policy == nil {
		c.Policy = Static{Interval: 75 * sim.Millisecond}
	}
	if c.BackoffCap == 0 {
		c.BackoffCap = 16 * 3 * c.AdvInterval
	}
}

// PeerLink is one neighbor's link-quality snapshot: the retransmission-EWMA
// delivery estimate and the per-peer loss/reconnect history. The routing
// metric (internal/rpl) and the metrics dashboards both read this — one
// number, two consumers.
type PeerLink struct {
	Peer ble.DevAddr
	// Up reports whether a usable connection to the peer is active.
	Up bool
	// PDR is the EWMA link-layer delivery estimate (1 = no retransmissions),
	// including the active connection's counters since the last sample.
	PDR float64
	// ETX is the expected-transmission-count form of PDR (1/PDR, clamped
	// to [1, 4]) — the unit the routing metric consumes.
	ETX float64
	// Reconnects counts completed re-establishments to this peer.
	Reconnects uint64
	// Losses counts established-link losses on this peer (supervision
	// timeouts of proven links, counted on this side).
	Losses uint64
}

// Stats counts manager-level events; Fig. 13/14 report the loss counts.
type Stats struct {
	LinksOpened     uint64
	SupervisionLoss uint64 // established links lost to supervision timeouts (shading)
	LinkLosses      uint64 // supervision losses counted once per link (coordinator side)
	EstablishFails  uint64 // connections that never exchanged a packet (CONNECT_IND lost)
	OtherLoss       uint64
	IntervalRejects uint64 // subordinate closed a colliding connection
	Reconnects      uint64
	ParamRequests   uint64 // renegotiation attempts sent (Renegotiate policy)
	ParamRejects    uint64 // renegotiations rejected by the coordinator
	ParamAccepts    uint64 // renegotiations this coordinator accepted

	// Recovery-latency percentiles over this node's coordinator-side link
	// repairs (loss of an established link → link back up). Zero when no
	// recovery has completed yet.
	RecoveryP50 sim.Duration
	RecoveryP95 sim.Duration
	RecoveryMax sim.Duration

	// Links is the per-peer link-quality snapshot, sorted by peer address.
	// Before this existed, reconnect counts were aggregate-only.
	Links []PeerLink
}

// peerQual is the per-peer link-quality state behind PeerLink. The PDR
// estimate folds each connection's (TXPDUs, Retrans) deltas into an EWMA;
// baselines mark how much of the active connection's counters were already
// consumed, so a connection can be sampled repeatedly without double counting.
type peerQual struct {
	ewmaPDR             float64
	sampled             bool
	baseTX, baseRetrans uint64
	reconnects, losses  uint64
}

// qualAlpha is the EWMA weight of a new PDR sample.
const qualAlpha = 0.3

// fold consumes the counters a connection accumulated since the last fold.
func (q *peerQual) fold(st ble.ConnStats) {
	if st.TXPDUs < q.baseTX || st.Retrans < q.baseRetrans {
		// Counters restarted (new connection object): re-baseline.
		q.baseTX, q.baseRetrans = 0, 0
	}
	dTX := st.TXPDUs - q.baseTX
	dRe := st.Retrans - q.baseRetrans
	q.baseTX, q.baseRetrans = st.TXPDUs, st.Retrans
	if dTX == 0 {
		return
	}
	pdr := float64(dTX) / float64(dTX+dRe)
	if !q.sampled {
		q.ewmaPDR = pdr
		q.sampled = true
		return
	}
	q.ewmaPDR = qualAlpha*pdr + (1-qualAlpha)*q.ewmaPDR
}

// pdr returns the current estimate with the given live deltas mixed in
// transiently (without advancing the baselines).
func (q *peerQual) pdr(liveTX, liveRe uint64) (float64, bool) {
	est, have := q.ewmaPDR, q.sampled
	if liveTX >= q.baseTX && liveTX > q.baseTX {
		dTX := liveTX - q.baseTX
		dRe := uint64(0)
		if liveRe > q.baseRetrans {
			dRe = liveRe - q.baseRetrans
		}
		pdr := float64(dTX) / float64(dTX+dRe)
		if have {
			est = qualAlpha*pdr + (1-qualAlpha)*est
		} else {
			est, have = pdr, true
		}
	}
	return est, have
}

// peerSlot is the per-peer record: whether the peer is a wanted outbound
// link, its backoff and recovery-measurement state, and its link quality.
// A BLE node maintains a handful of links, so one small slice scanned
// linearly beats a map per field. Slots are created on first touch and
// never removed (a node's peer set is its static topology); fields are
// cleared instead.
type peerSlot struct {
	peer      ble.DevAddr
	wanted    bool
	attempts  int
	downSince sim.Time
	measuring bool
	hasQual   bool
	qual      peerQual
}

// Manager maintains a node's configured BLE connections.
type Manager struct {
	s    *sim.Sim
	ctrl *ble.Controller
	cfg  Config
	rng  *rand.Rand

	// slots holds the per-peer state: wanted outbound links, backoff
	// attempts, recovery stamps and link quality (see peerSlot).
	slots    []peerSlot
	expectIn int // subordinate links we accept
	activeIn int
	up       []*ble.Conn // links reported via OnLinkUp

	// lossTimes records when each loss happened (Fig. 14's counts and the
	// reconnect-latency characterization).
	lossTimes      []sim.Time
	reconnectEnds  []sim.Time
	pendingReopens int

	// Self-healing state beyond the per-peer slots: the completed
	// recovery latencies as a mergeable distribution (seconds) — bounded
	// memory in sketch mode, so long churny runs don't accumulate
	// per-sample state.
	recovery metrics.CDF

	// stopped gates all topology-restoring reactions while the host is
	// down; gen invalidates backoff timers armed before a shutdown.
	stopped bool
	gen     int

	samplerOn bool

	stats Stats

	// OnLinkUp fires for every usable connection (colliding-interval
	// connections are filtered out before this fires).
	OnLinkUp func(c *ble.Conn)
	// OnLinkDown fires when a previously usable connection ended.
	OnLinkDown func(c *ble.Conn, reason ble.LossReason)
}

// New wires a manager onto a controller. The manager owns the controller's
// OnConnect/OnDisconnect hooks.
func New(s *sim.Sim, ctrl *ble.Controller, cfg Config) *Manager {
	m := new(Manager)
	NewInto(m, s, ctrl, cfg)
	return m
}

// NewInto initializes a manager in place (arena-backed construction).
func NewInto(m *Manager, s *sim.Sim, ctrl *ble.Controller, cfg Config) {
	cfg.defaults()
	*m = Manager{
		s:    s,
		ctrl: ctrl,
		cfg:  cfg,
		rng:  s.Rand(),
	}
	ctrl.SetScanParams(ble.ScanParams{Interval: cfg.ScanInterval, Window: cfg.ScanWindow})
	ctrl.OnConnect = m.handleConnect
	ctrl.OnDisconnect = m.handleDisconnect
}

// ---- Per-peer slots and the up-set ---------------------------------------

// slot returns peer's slot, or nil when the peer has never been touched.
func (m *Manager) slot(peer ble.DevAddr) *peerSlot {
	for i := range m.slots {
		if m.slots[i].peer == peer {
			return &m.slots[i]
		}
	}
	return nil
}

// slotEnsure returns peer's slot, creating it on first touch. The returned
// pointer is invalidated by the next slotEnsure that grows the slice, so
// callers must not hold it across peer-creating calls (the handler audit:
// none do).
func (m *Manager) slotEnsure(peer ble.DevAddr) *peerSlot {
	if s := m.slot(peer); s != nil {
		return s
	}
	m.slots = append(m.slots, peerSlot{peer: peer})
	return &m.slots[len(m.slots)-1]
}

func (m *Manager) wanted(peer ble.DevAddr) bool {
	s := m.slot(peer)
	return s != nil && s.wanted
}

func (m *Manager) resetAttempts(peer ble.DevAddr) {
	if s := m.slot(peer); s != nil {
		s.attempts = 0
	}
}

// downSince reports when peer's proven link went down, if a recovery
// measurement is running.
func (m *Manager) downSince(peer ble.DevAddr) (sim.Time, bool) {
	if s := m.slot(peer); s != nil && s.measuring {
		return s.downSince, true
	}
	return 0, false
}

func (m *Manager) isUp(c *ble.Conn) bool {
	for _, x := range m.up {
		if x == c {
			return true
		}
	}
	return false
}

func (m *Manager) setUp(c *ble.Conn) {
	if !m.isUp(c) {
		m.up = append(m.up, c)
	}
}

func (m *Manager) clearUp(c *ble.Conn) {
	for i, x := range m.up {
		if x == c {
			m.up = append(m.up[:i], m.up[i+1:]...)
			return
		}
	}
}

// Stats returns a copy of the manager counters, with the recovery-latency
// percentiles computed from the recovery distribution accumulated so far
// (quantile-sketch approximations by default, exact in exact-CDF mode).
func (m *Manager) Stats() Stats {
	st := m.stats
	if m.recovery.N() > 0 {
		st.RecoveryP50 = secondsToDuration(m.recovery.Quantile(0.5))
		st.RecoveryP95 = secondsToDuration(m.recovery.Quantile(0.95))
		st.RecoveryMax = secondsToDuration(m.recovery.Max())
	}
	st.Links = m.peerLinks()
	return st
}

func secondsToDuration(s float64) sim.Duration { return sim.Duration(s*1e9 + 0.5) }

// RecoveryDist returns the completed loss→re-up latency distribution of
// this node's coordinator-side links (seconds). The caller may Merge it
// into a network-wide aggregate but must not Add to it.
func (m *Manager) RecoveryDist() *metrics.CDF { return &m.recovery }

// LossTimes returns when supervision losses happened (for loss-over-time
// reporting).
func (m *Manager) LossTimes() []sim.Time { return append([]sim.Time(nil), m.lossTimes...) }

// Config returns the active configuration.
func (m *Manager) Config() Config { return m.cfg }

// ExpectInbound declares how many subordinate-role connections this node
// accepts. The manager advertises whenever fewer are active.
func (m *Manager) ExpectInbound(n int) {
	m.expectIn = n
	m.ensureAdvertising()
}

// Connect declares a coordinator-role connection this node must maintain.
func (m *Manager) Connect(peer ble.DevAddr) {
	if m.wanted(peer) {
		return
	}
	m.slotEnsure(peer).wanted = true
	m.initiateAfterBackoff(peer)
}

// initiateAfterBackoff desynchronises initiators: two coordinators targeting
// the same advertiser otherwise answer the same ADV_IND and their
// CONNECT_INDs collide on the air — deterministically, forever. The jitter
// window starts at 3×AdvInterval and doubles per consecutive failed attempt
// (bounded by Config.BackoffCap), so repeated establishment failures —
// e.g. during a peer's reboot or a jammed advertising channel — back off
// instead of hammering the air. Success resets the window.
func (m *Manager) initiateAfterBackoff(peer ble.DevAddr) {
	span := int64(3 * m.cfg.AdvInterval)
	attempts := 0
	if s := m.slot(peer); s != nil {
		attempts = s.attempts
	}
	for i := attempts; i > 0 && span < int64(m.cfg.BackoffCap); i-- {
		span <<= 1
	}
	if span > int64(m.cfg.BackoffCap) {
		span = int64(m.cfg.BackoffCap)
	}
	delay := sim.Duration(m.rng.Int63n(span))
	gen := m.gen
	m.s.Post(delay, func() {
		if m.gen != gen || m.stopped {
			return
		}
		if !m.wanted(peer) || m.ctrl.FindConn(peer) != nil {
			return
		}
		m.initiate(peer)
	})
}

// usedIntervals lists the intervals of all active connections plus a few in
// flight, so Pick can avoid duplicates.
func (m *Manager) usedIntervals() []sim.Duration {
	var used []sim.Duration
	for _, c := range m.ctrl.Conns() {
		used = append(used, c.Interval())
	}
	return used
}

func (m *Manager) initiate(peer ble.DevAddr) {
	params := ble.ConnParams{
		Interval:    m.cfg.Policy.Pick(m.rng, m.usedIntervals()),
		Latency:     m.cfg.Latency,
		Supervision: m.cfg.Supervision,
		ChanMap:     m.cfg.ChanMap,
		CSA:         m.cfg.CSA,
	}
	if err := params.Validate(); err != nil {
		panic(fmt.Sprintf("statconn: invalid connection parameters: %v", err))
	}
	if err := m.ctrl.Connect(peer, params); err != nil {
		panic(fmt.Sprintf("statconn: connect: %v", err))
	}
}

func (m *Manager) ensureAdvertising() {
	if m.activeIn < m.expectIn {
		m.ctrl.StartAdvertising(ble.AdvParams{Interval: m.cfg.AdvInterval, DataLen: m.cfg.AdvDataLen})
	}
}

// Shutdown forgets the configured topology and stops reacting to link
// events, as the host side of a crashing node: pending backoff timers are
// invalidated, and losses reported while stopped (the controller tearing its
// connections down) only propagate to OnLinkDown. Cumulative statistics and
// recovery measurements survive — they model the observer, not the device.
// Call before the controller's own Shutdown.
func (m *Manager) Shutdown() {
	m.stopped = true
	m.gen++
	m.expectIn = 0
	m.activeIn = 0
	m.pendingReopens = 0
	// Forget the topology and self-healing state; link quality is
	// observer state and survives.
	for i := range m.slots {
		m.slots[i].wanted = false
		m.slots[i].attempts = 0
		m.slots[i].measuring = false
	}
}

// Restart re-arms a stopped manager; the host re-declares its topology via
// Connect/ExpectInbound afterwards.
func (m *Manager) Restart() {
	m.stopped = false
}

// handleConnect filters colliding intervals (subordinate side of §6.3) and
// reports usable links.
func (m *Manager) handleConnect(c *ble.Conn) {
	if m.stopped {
		// A connection completing against a down host: refuse it.
		c.Close()
		return
	}
	if c.Role() == ble.Subordinate {
		if m.cfg.Policy.EnforceUnique() && m.intervalCollides(c) {
			// Close immediately; the coordinator's manager retries
			// with a fresh random interval.
			m.stats.IntervalRejects++
			c.Close()
			m.ensureAdvertising()
			return
		}
		if p, ok := m.cfg.Policy.(Renegotiate); ok && m.intervalCollides(c) {
			// §6.3 alternative: keep the link and ask the
			// coordinator for a different interval.
			if iv := p.pickFree(m.rng, m.usedIntervals()); iv != 0 {
				m.stats.ParamRequests++
				_ = c.RequestParams(iv)
			}
		}
		m.activeIn++
		m.ensureAdvertising() // keep advertising if more are expected
	}
	if c.Role() == ble.Coordinator {
		if _, ok := m.cfg.Policy.(Renegotiate); ok {
			conn := c
			conn.OnParamRequest = func(iv sim.Duration) bool {
				// The coordinator only sees its own constraint
				// set — the paper's point.
				for _, other := range m.ctrl.Conns() {
					if other != conn && other.Interval() == iv {
						m.stats.ParamRejects++
						return false
					}
				}
				m.stats.ParamAccepts++
				return true
			}
		}
	}
	if c.Role() == ble.Coordinator {
		// Success resets the exponential backoff and completes any
		// recovery measurement that started when the link went down.
		m.resetAttempts(c.Peer())
		if t0, ok := m.downSince(c.Peer()); ok {
			m.slot(c.Peer()).measuring = false
			m.recovery.AddDuration(m.s.Now() - t0)
		}
	}
	q := m.quality(c.Peer())
	q.baseTX, q.baseRetrans = 0, 0 // fresh connection: counters start at zero
	m.setUp(c)
	m.stats.LinksOpened++
	if m.pendingReopens > 0 {
		m.pendingReopens--
		m.reconnectEnds = append(m.reconnectEnds, m.s.Now())
		m.stats.Reconnects++
		q.reconnects++
	}
	if m.OnLinkUp != nil {
		m.OnLinkUp(c)
	}
}

// intervalCollides reports whether another active connection uses c's
// interval.
func (m *Manager) intervalCollides(c *ble.Conn) bool {
	for _, other := range m.ctrl.Conns() {
		if other != c && other.Interval() == c.Interval() {
			return true
		}
	}
	return false
}

// handleDisconnect restores the configured topology after a loss.
func (m *Manager) handleDisconnect(c *ble.Conn, reason ble.LossReason) {
	if m.stopped {
		// The host is down (Shutdown in progress): report the loss so the
		// network layer detaches, but restore nothing.
		if m.isUp(c) {
			m.clearUp(c)
			if m.OnLinkDown != nil {
				m.OnLinkDown(c, reason)
			}
		}
		return
	}
	if !m.isUp(c) {
		// A connection we rejected (interval collision) finished its
		// teardown: nothing to restore beyond advertising.
		m.ensureAdvertising()
		return
	}
	m.clearUp(c)
	m.quality(c.Peer()).fold(c.Stats()) // bank the dying connection's counters
	switch {
	case reason == ble.LossSupervision && c.Stats().EventsOK == 0:
		// The six-interval establishment timeout: the CONNECT_IND was
		// lost (e.g. two initiators answered the same advertisement).
		// Not a link loss — the link never existed.
		m.stats.EstablishFails++
		if c.Role() == ble.Coordinator && m.wanted(c.Peer()) {
			m.slotEnsure(c.Peer()).attempts++
		}
	case reason == ble.LossSupervision:
		m.stats.SupervisionLoss++
		if c.Role() == ble.Coordinator {
			m.stats.LinkLosses++
		}
		m.quality(c.Peer()).losses++
		m.lossTimes = append(m.lossTimes, m.s.Now())
	default:
		m.stats.OtherLoss++
	}

	switch c.Role() {
	case ble.Coordinator:
		if m.wanted(c.Peer()) {
			// A proven link starting a repair: stamp the loss time for
			// the recovery-latency measurement and reset the backoff (a
			// fresh loss episode starts from the short window).
			if c.Stats().EventsOK > 0 {
				if _, measuring := m.downSince(c.Peer()); !measuring {
					s := m.slotEnsure(c.Peer())
					s.downSince, s.measuring = m.s.Now(), true
				}
				m.resetAttempts(c.Peer())
			}
			m.pendingReopens++
			m.initiateAfterBackoff(c.Peer())
		}
	case ble.Subordinate:
		if m.activeIn > 0 {
			m.activeIn--
		}
		m.pendingReopens++
		m.ensureAdvertising()
	}
	if m.OnLinkDown != nil {
		m.OnLinkDown(c, reason)
	}
}

// quality returns (creating if needed) the peer's link-quality state. The
// pointer aims into the slots slice and is invalidated by the next slot
// creation; every caller uses it before any peer-creating call.
func (m *Manager) quality(peer ble.DevAddr) *peerQual {
	s := m.slotEnsure(peer)
	s.hasQual = true
	return &s.qual
}

// SampleLinkQuality folds the retransmission counters of every active
// connection into the per-peer PDR EWMAs. The periodic sampler calls this;
// it is also safe to call directly (e.g. from tests).
func (m *Manager) SampleLinkQuality() {
	for _, c := range m.up {
		m.quality(c.Peer()).fold(c.Stats())
	}
}

// EnableQualitySampling arms a periodic SampleLinkQuality (default every 2s).
// Idempotent; only dynamic-routing deployments call it, so static runs pay
// zero extra timer events and stay byte-identical.
func (m *Manager) EnableQualitySampling(interval sim.Duration) {
	if m.samplerOn {
		return
	}
	m.samplerOn = true
	if interval <= 0 {
		interval = 2 * sim.Second
	}
	var tick func()
	tick = func() {
		m.SampleLinkQuality()
		m.s.Post(interval, tick)
	}
	m.s.Post(interval, tick)
}

// PeerETX returns the expected transmission count toward the peer: 1/PDR
// with PDR clamped to [0.25, 1], so ETX ∈ [1, 4]. A peer with no delivery
// history yet reads as a perfect link (ETX 1) — optimistic bootstrap keeps
// the first parent selection from starving. The query is pure: the active
// connection's live counters are mixed in transiently without advancing the
// sampling baselines.
func (m *Manager) PeerETX(peer ble.DevAddr) float64 {
	s := m.slot(peer)
	if s == nil || !s.hasQual {
		return 1
	}
	q := &s.qual
	var liveTX, liveRe uint64
	for _, c := range m.up {
		if c.Peer() == peer {
			st := c.Stats()
			liveTX, liveRe = st.TXPDUs, st.Retrans
			break
		}
	}
	pdr, have := q.pdr(liveTX, liveRe)
	if !have {
		return 1
	}
	if pdr < 0.25 {
		pdr = 0.25
	}
	if pdr > 1 {
		pdr = 1
	}
	return 1 / pdr
}

// peerLinks builds the sorted per-peer snapshot for Stats.
func (m *Manager) peerLinks() []PeerLink {
	var peers []ble.DevAddr
	for i := range m.slots {
		if m.slots[i].hasQual {
			peers = append(peers, m.slots[i].peer)
		}
	}
	if len(peers) == 0 {
		return nil
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
	out := make([]PeerLink, 0, len(peers))
	for _, p := range peers {
		q := m.quality(p)
		up := false
		for _, c := range m.up {
			if c.Peer() == p {
				up = true
				break
			}
		}
		etx := m.PeerETX(p)
		out = append(out, PeerLink{
			Peer:       p,
			Up:         up,
			PDR:        1 / etx,
			ETX:        etx,
			Reconnects: q.reconnects,
			Losses:     q.losses,
		})
	}
	return out
}
