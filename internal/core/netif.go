// Package core is the platform glue — the equivalent of the paper's
// nimble_netif module (§3): it exposes BLE L2CAP connection-oriented
// channels as a 6LoWPAN link layer to the IP stack, forwarding IP packets
// between the stack and the per-neighbor IPSP channels, with IPHC
// compression on the wire and GNRC-pktbuf-accounted interface queues.
//
// The package also assembles complete nodes (radio, clock, controller,
// statconn manager, netif, IP stack, CoAP endpoint) and provides the
// analytic connection-shading model of §6.2.
package core

import (
	"fmt"
	"sort"

	"blemesh/internal/ble"
	"blemesh/internal/gatt"
	"blemesh/internal/ip6"
	"blemesh/internal/l2cap"
	"blemesh/internal/pktbuf"
	"blemesh/internal/sim"
	"blemesh/internal/sixlo"
	"blemesh/internal/trace"
)

// NetIfStats counts adapter-level events.
type NetIfStats struct {
	TXPackets     uint64 // IPv6 packets handed to L2CAP
	RXPackets     uint64 // IPv6 packets delivered to the stack
	QueueDrops    uint64 // pktbuf full: packet rejected
	LinkDrops     uint64 // queue flushed because the link died
	IPSSRefused   uint64 // peers whose GATT database lacked the IPSS
	CompressErr   uint64
	DecompressErr uint64
}

// link is the per-neighbor state: one BLE connection, its L2CAP endpoint,
// the ATT mux with the IPSS database, and the IPSP channel once open.
type link struct {
	conn    *ble.Conn
	ep      *l2cap.Endpoint
	att     *gatt.ATT
	ch      *l2cap.Channel
	queue   []outFrame // compressed frames awaiting the channel, pktbuf-charged
	peerMAC uint64
}

// outFrame is one queued compressed frame (in its pooled buffer) with the
// provenance ID of the packet it carries.
type outFrame struct {
	buf *pktbuf.Buf
	pid uint64
}

// NetIf adapts BLE+L2CAP to the ip6.NetIf interface.
type NetIf struct {
	s     *sim.Sim
	stack *ip6.Stack
	mac   uint64
	ctxs  []sixlo.Context
	// Neighbor table: a short slice scanned linearly — a BLE node
	// sustains a handful of links.
	links  []*link
	gattDB *gatt.Server
	stats  NetIfStats
	tr     *trace.Log
	node   string
}

// SetTrace wires the adapter to a shared trace log (for link-down drop
// records), emitting under the given node name.
func (n *NetIf) SetTrace(l *trace.Log, node string) {
	n.tr = l
	n.node = node
}

// NewNetIfInto initializes an adapter in place (arena-backed construction)
// and attaches it to the stack. gattDB is the node's GATT/IPSS database; it
// never changes after construction, so one instance may serve every node.
func NewNetIfInto(n *NetIf, s *sim.Sim, stack *ip6.Stack, gattDB *gatt.Server) {
	*n = NetIf{
		s:      s,
		stack:  stack,
		mac:    stack.MAC(),
		ctxs:   sixlo.DefaultContexts,
		gattDB: gattDB,
	}
	stack.AddInterface(n)
}

// linkFor returns the link toward mac, or nil.
func (n *NetIf) linkFor(mac uint64) *link {
	for _, l := range n.links {
		if l.peerMAC == mac {
			return l
		}
	}
	return nil
}

func (n *NetIf) delLinkEntry(mac uint64) {
	for i, l := range n.links {
		if l.peerMAC == mac {
			n.links = append(n.links[:i], n.links[i+1:]...)
			return
		}
	}
}

// Stats returns a copy of the adapter counters.
func (n *NetIf) Stats() NetIfStats { return n.stats }

// MTU implements ip6.NetIf (RFC 7668 requires 1280).
func (n *NetIf) MTU() int { return 1280 }

// HasNeighbor implements ip6.NetIf.
func (n *NetIf) HasNeighbor(mac uint64) bool {
	return n.linkFor(mac) != nil
}

// Links returns the neighbor MACs with active BLE connections.
func (n *NetIf) Links() []uint64 {
	out := make([]uint64, 0, len(n.links))
	for _, l := range n.links {
		out = append(out, l.peerMAC)
	}
	return out
}

// AddLink wires a fresh BLE connection into the adapter: an L2CAP endpoint
// and the ATT/IPSS database are created; the coordinator side first checks
// the peer's IP capability via GATT service discovery (as the Internet
// Protocol Support Profile prescribes) and then dials the IPSP channel.
func (n *NetIf) AddLink(conn *ble.Conn) {
	peerMAC := uint64(conn.Peer())
	l := &link{conn: conn, peerMAC: peerMAC}
	l.ep = l2cap.NewEndpoint(n.s, conn)
	l.ep.RegisterServer(l2cap.PSMIPSP, l2cap.Config{})
	l.ep.OnChannelOpen = func(ch *l2cap.Channel) { n.channelUp(l, ch) }
	l.att = gatt.NewATT(n.s, l.ep, n.gattDB)
	if conn.Role() == ble.Coordinator {
		_ = l.att.SupportsIPSS(func(ok bool, err error) {
			if err != nil || !ok {
				n.stats.IPSSRefused++
				return
			}
			l.ep.Dial(l2cap.PSMIPSP, l2cap.Config{}, func(ch *l2cap.Channel, err error) {
				if err == nil {
					n.channelUp(l, ch)
				}
			})
		})
	}
	n.links = append(n.links, l)
}

// RemoveLink tears the adapter state for a dead BLE connection down,
// flushing its queue.
func (n *NetIf) RemoveLink(conn *ble.Conn) {
	peerMAC := uint64(conn.Peer())
	l := n.linkFor(peerMAC)
	if l == nil || l.conn != conn {
		return
	}
	n.delLinkEntry(peerMAC)
	l.ep.Teardown()
	n.flushQueue(l)
}

// flushQueue drops a dead link's queued frames, releasing their pktbuf
// charges and buffers and recording the drops.
func (n *NetIf) flushQueue(l *link) {
	for _, f := range l.queue {
		n.stack.Pktbuf.Free(f.buf.Len())
		f.buf.Put()
		n.stats.LinkDrops++
		if f.pid != 0 && n.tr.Enabled() {
			n.tr.EmitPkt(n.node, trace.KindPacketDrop, f.pid, 0, "cause=link-down peer=%012x", l.peerMAC)
		}
	}
	l.queue = nil
}

// Reset tears down every link, as a reboot dropping the adapter's RAM:
// queued frames release their pktbuf charges and all L2CAP/ATT state goes.
// Links are removed in MAC order so teardown side effects are deterministic.
func (n *NetIf) Reset() {
	macs := n.Links()
	sort.Slice(macs, func(i, j int) bool { return macs[i] < macs[j] })
	for _, mac := range macs {
		l := n.linkFor(mac)
		n.delLinkEntry(mac)
		l.ep.Teardown()
		n.flushQueue(l)
	}
}

// channelUp installs the IPSP channel on a link and starts draining.
func (n *NetIf) channelUp(l *link, ch *l2cap.Channel) {
	l.ch = ch
	ch.OnSDUBuf = func(sdu *pktbuf.Buf, pid uint64) { n.input(l, sdu, pid) }
	ch.OnWritable = func() { n.drain(l) }
	n.drain(l)
}

// Output implements ip6.NetIf: compress in place, charge the pktbuf, queue,
// drain. The packet's pooled buffer is carried through to the LL without
// copying; ownership of pkt passes to the adapter in every case.
func (n *NetIf) Output(mac uint64, pkt *pktbuf.Buf, pid uint64) bool {
	l := n.linkFor(mac)
	if l == nil {
		pkt.Put()
		return false
	}
	if err := sixlo.CompressBuf(pkt, n.mac, mac, n.ctxs); err != nil {
		n.stats.CompressErr++
		pkt.Put()
		return false
	}
	if !n.stack.Pktbuf.Alloc(pkt.Len()) {
		// GNRC pktbuf exhausted: this is the §5.2 loss process.
		n.stats.QueueDrops++
		pkt.Put()
		return false
	}
	l.queue = append(l.queue, outFrame{buf: pkt, pid: pid})
	n.drain(l)
	return true
}

// drain pushes queued frames into the IPSP channel while it accepts them.
func (n *NetIf) drain(l *link) {
	for len(l.queue) > 0 && l.ch != nil && l.ch.Writable() {
		f := l.queue[0]
		l.queue = l.queue[1:]
		size := f.buf.Len()
		err := l.ch.SendSDUBuf(f.buf, f.pid, func() {
			n.stack.Pktbuf.Free(size)
		})
		if err != nil {
			n.stack.Pktbuf.Free(size)
			n.stats.LinkDrops++
			continue
		}
		n.stats.TXPackets++
	}
}

// input decompresses a received frame in place and hands it to the IP stack.
func (n *NetIf) input(l *link, sdu *pktbuf.Buf, pid uint64) {
	if err := sixlo.DecompressBuf(sdu, l.peerMAC, n.mac, n.ctxs); err != nil {
		n.stats.DecompressErr++
		sdu.Put()
		return
	}
	n.stats.RXPackets++
	n.stack.InputBuf(sdu, pid)
}

// QueueDepth returns the number of frames queued toward a neighbor.
func (n *NetIf) QueueDepth(mac uint64) int {
	if l := n.linkFor(mac); l != nil {
		return len(l.queue)
	}
	return 0
}

func (n *NetIf) String() string {
	return fmt.Sprintf("ble-netif(%012x links=%d)", n.mac, len(n.links))
}

// Channel returns the IPSP channel toward a neighbor, or nil (diagnostics).
func (n *NetIf) Channel(mac uint64) *l2cap.Channel {
	if l := n.linkFor(mac); l != nil {
		return l.ch
	}
	return nil
}

// Endpoint returns the L2CAP endpoint toward a neighbor, or nil.
func (n *NetIf) Endpoint(mac uint64) *l2cap.Endpoint {
	if l := n.linkFor(mac); l != nil {
		return l.ep
	}
	return nil
}
