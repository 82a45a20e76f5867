package core

import (
	"blemesh/internal/ble"
	"blemesh/internal/coap"
	"blemesh/internal/ip6"
	"blemesh/internal/phy"
	"blemesh/internal/rpl"
	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/trace"
)

// NodeConfig assembles one complete IPv6-over-BLE node.
type NodeConfig struct {
	// Name labels the node in reports ("nrf52dk-1").
	Name string
	// MAC is the 48-bit device address; it seeds the BLE DevAddr and the
	// IPv6 IIDs.
	MAC uint64
	// ClockPPM is the node's actual sleep-clock frequency error.
	ClockPPM float64
	// SCA is the declared sleep-clock accuracy (must bound ClockPPM).
	SCA float64
	// Statconn configures the connection manager (intervals, policy).
	Statconn statconn.Config
	// Arbitration selects the radio scheduler policy.
	Arbitration ble.Arbitration
	// LLPoolBytes overrides the NimBLE buffer pool (default 6600).
	LLPoolBytes int
	// PktbufBytes overrides the GNRC packet buffer (default 6144).
	PktbufBytes int
	// ExchangeGap overrides the host processing gap (see ble package).
	ExchangeGap sim.Duration
	// DisableWindowWidening is an ablation switch.
	DisableWindowWidening bool
	// Trace, when non-nil and enabled, receives the node's link events
	// (the paper's §4.2 STDIO event stream).
	Trace *trace.Log
	// Routing, when non-nil, runs an RPL-lite instance (internal/rpl) on
	// the node instead of relying on provisioned static routes. Nil keeps
	// the node fully static — no extra timers, no extra RNG draws, so
	// static runs stay byte-identical with pre-routing builds.
	Routing *rpl.Config
	// Arena supplies preallocated struct storage; nil builds the node
	// from a one-node arena of its own.
	Arena *Arena
}

// Node is one fully assembled node: radio, drifting clock, BLE controller,
// statconn manager, L2CAP/6LoWPAN adapter, IPv6 stack, and CoAP endpoint —
// the same stack Figure 5 of the paper shows for RIOT+NimBLE.
type Node struct {
	Name     string
	Sim      *sim.Sim
	Clock    *sim.Clock
	Radio    *phy.Radio
	Ctrl     *ble.Controller
	Statconn *statconn.Manager
	NetIf    *NetIf
	Stack    *ip6.Stack
	Coap     *coap.Endpoint
	// RPL is the node's dynamic-routing instance; nil on static nodes.
	RPL *rpl.Instance

	running bool
	prov    provisioned
}

// provisioned is the node's non-volatile configuration — the topology and
// routes its firmware image carries — replayed verbatim on Restart.
type provisioned struct {
	outbound []ble.DevAddr
	inbound  int
	routes   []ip6.Route
}

// NewNode builds a node on the given medium, carving every subsystem struct
// out of cfg.Arena's slabs.
func NewNode(s *sim.Sim, medium *phy.Medium, cfg NodeConfig) *Node {
	ar := cfg.Arena
	if ar == nil {
		ar = NewArena(1, nil)
	}
	sca := cfg.SCA
	if sca == 0 {
		sca = 50
	}
	clk := ar.clocks.Take()
	sim.NewClockInto(clk, s, cfg.ClockPPM)
	radio := medium.NewRadio()
	ctrl := ar.ctrls.Take()
	ble.NewControllerInto(ctrl, s, clk, radio, ble.ControllerConfig{
		Addr:                  ble.DevAddr(cfg.MAC),
		SCA:                   sca,
		PoolBytes:             cfg.LLPoolBytes,
		Arbitration:           cfg.Arbitration,
		ExchangeGap:           cfg.ExchangeGap,
		DisableWindowWidening: cfg.DisableWindowWidening,
	})
	stack := ar.stacks.Take()
	ip6.NewStackInto(stack, s, cfg.MAC)
	if cfg.PktbufBytes > 0 {
		stack.Pktbuf.Capacity = cfg.PktbufBytes
	}
	netif := ar.netifs.Take()
	NewNetIfInto(netif, s, stack, ar.gattDB)
	mgr := ar.mgrs.Take()
	statconn.NewInto(mgr, s, ctrl, cfg.Statconn)
	tr := cfg.Trace
	name := cfg.Name
	ctrl.SetTrace(tr, name)
	stack.SetTrace(tr, name)
	netif.SetTrace(tr, name)
	var router *rpl.Instance
	if cfg.Routing != nil {
		router = rpl.New(s, stack, *cfg.Routing)
		router.SetTrace(tr, name)
		// The routing metric reads statconn's per-peer retransmission
		// EWMA; the sampler keeps it fresh on the same cadence for every
		// dynamic node.
		router.SetETX(func(mac uint64) float64 { return mgr.PeerETX(ble.DevAddr(mac)) })
		mgr.EnableQualitySampling(0)
	}
	mgr.OnLinkUp = func(c *ble.Conn) {
		tr.Emit(name, trace.KindConnOpen, "peer=%v role=%v itvl=%v", c.Peer(), c.Role(), c.Interval())
		netif.AddLink(c)
		if router != nil {
			router.LinkUp(uint64(c.Peer()))
		}
	}
	mgr.OnLinkDown = func(c *ble.Conn, reason ble.LossReason) {
		tr.Emit(name, trace.KindConnLoss, "peer=%v reason=%v", c.Peer(), reason)
		netif.RemoveLink(c)
		if router != nil {
			router.LinkDown(uint64(c.Peer()))
		}
	}
	ep := ar.coaps.Take()
	coap.NewEndpointInto(ep, s, stack, 0)
	ep.SetTrace(tr, name)
	if router != nil {
		router.Start()
	}
	nd := ar.nodes.Take()
	*nd = Node{
		Name:     cfg.Name,
		Sim:      s,
		Clock:    clk,
		Radio:    radio,
		Ctrl:     ctrl,
		Statconn: mgr,
		NetIf:    netif,
		Stack:    stack,
		Coap:     ep,
		RPL:      router,
		running:  true,
	}
	return nd
}

// Addr returns the node's mesh (fd00::) address.
func (n *Node) Addr() ip6.Addr { return n.Stack.GlobalAddr() }

// DevAddr returns the node's BLE device address.
func (n *Node) DevAddr() ble.DevAddr { return n.Ctrl.Addr() }

// ConnectTo declares a coordinator-role BLE connection toward peer, managed
// (and re-established on loss) by statconn. The declaration is part of the
// node's non-volatile configuration and survives Stop/Restart.
func (n *Node) ConnectTo(peer *Node) {
	addr := peer.DevAddr()
	for _, p := range n.prov.outbound {
		if p == addr {
			n.Statconn.Connect(addr)
			return
		}
	}
	n.prov.outbound = append(n.prov.outbound, addr)
	n.Statconn.Connect(addr)
}

// AcceptInbound declares how many subordinate-role connections this node
// accepts; it advertises until that many are up and re-advertises on loss.
// The declaration survives Stop/Restart.
func (n *Node) AcceptInbound(k int) {
	n.prov.inbound = k
	n.Statconn.ExpectInbound(k)
}

// AddHostRoute installs a host route to dst via the neighbor nextHop. The
// route is part of the provisioned configuration and survives Stop/Restart.
func (n *Node) AddHostRoute(dst, nextHop *Node) {
	r := ip6.Route{Dst: dst.Addr(), PrefixLen: 128, NextHop: nextHop.Addr()}
	n.prov.routes = append(n.prov.routes, r)
	_ = n.Stack.AddRoute(r)
}

// ReserveProvRoutes aims the provisioned-route list at preallocated storage
// (arena carving): a builder that knows the node's exact route count carves
// one window of a shared slab instead of letting append grow a fresh
// allocation per node. Must be called before any AddHostRoute; an
// under-counted reservation degrades gracefully to append growth.
func (n *Node) ReserveProvRoutes(buf []ip6.Route) {
	if len(n.prov.routes) > 0 {
		panic("core: ReserveProvRoutes after AddHostRoute")
	}
	n.prov.routes = buf[:0]
}

// Running reports whether the node is powered on.
func (n *Node) Running() bool { return n.running }

// Stop crashes the node: every layer drops its volatile state — BLE
// connections die silently (peers discover the loss via their supervision
// timeouts), advertising/scanning stop, L2CAP channels and their queued
// frames go, the neighbor base, routes, 6LoWPAN reassembly buffers, and
// pending CoAP exchanges vanish. Cumulative statistics survive: they model
// the experiment's observer, not the device's RAM.
func (n *Node) Stop() {
	if !n.running {
		return
	}
	n.running = false
	// Order matters: routing must go quiet before the links report down
	// (a crashing node does not poison anyone), the manager must stop
	// restoring topology before the controller kills the links, and
	// interface queues must release their pktbuf charges before the stack
	// zeroes the pool.
	if n.RPL != nil {
		n.RPL.Stop()
	}
	n.Statconn.Shutdown()
	n.Ctrl.Shutdown()
	n.NetIf.Reset()
	n.Coap.Reset()
	n.Stack.Reset()
}

// Restart boots a stopped node from its provisioned configuration: routes
// are reinstalled and statconn re-declares the node's static links, which
// then re-establish through the normal advertise/scan machinery.
func (n *Node) Restart() {
	if n.running {
		return
	}
	n.running = true
	n.Statconn.Restart()
	for _, r := range n.prov.routes {
		_ = n.Stack.AddRoute(r)
	}
	if n.prov.inbound > 0 {
		n.Statconn.ExpectInbound(n.prov.inbound)
	}
	for _, p := range n.prov.outbound {
		n.Statconn.Connect(p)
	}
	if n.RPL != nil {
		// Rejoin from scratch once links re-form; a rebooting root bumps
		// the DODAG version (global repair).
		n.RPL.Start()
	}
}
