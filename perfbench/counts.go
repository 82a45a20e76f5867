package main

import (
	"blemesh/internal/exp"
)

// layerCounts are the layers' own counters, read through their public
// Stats() after a run. Connection and channel counters cover the
// connections alive at the end of the run: the layers drop a closed
// connection's counters with it.
type layerCounts struct {
	events uint64

	phyTX, phyDelivered, phyCollisions uint64

	bleEventsPlanned, bleEventsSkipped, bleEventsEmpty uint64
	bleDataPDUs, bleRetrans, blePreempts               uint64

	linksOpened, linkLosses, reconnects, intervalRejects uint64

	sdusSent, framesSent, stalls uint64

	netifQueueDrops, netifLinkDrops uint64

	ipSent, ipForwarded, ipQueueDrops, ipNoRoute uint64

	coapRequests, coapRetrans, coapDuplicates, coapGiveUps uint64

	dioSent, daoSent, parentSwitches, localRepairs uint64

	traceEvents, streamBytes uint64
}

// addCounts adds the network's counters to c.
func addCounts(c *layerCounts, nw *exp.Network, streamBytes int64) {
	c.events += nw.Processed()
	c.traceEvents += nw.Trace.Total()
	c.streamBytes += uint64(streamBytes)
	for _, m := range nw.Media {
		st := m.Stats()
		c.phyTX += st.Transmissions
		c.phyDelivered += st.Delivered
		c.phyCollisions += st.Collisions
	}
	for _, n := range nw.Nodes {
		if n == nil {
			continue
		}
		for _, conn := range n.Ctrl.Conns() {
			st := conn.Stats()
			c.bleEventsPlanned += st.EventsPlanned
			c.bleEventsSkipped += st.EventsSkipped
			c.bleEventsEmpty += st.EventsEmpty
			c.bleDataPDUs += st.TXPDUs - st.TXEmpty
			c.bleRetrans += st.Retrans
		}
		c.blePreempts += n.Ctrl.Scheduler().Stats().Preempts

		sc := n.Statconn.Stats()
		c.linksOpened += sc.LinksOpened
		c.linkLosses += sc.LinkLosses
		c.reconnects += sc.Reconnects
		c.intervalRejects += sc.IntervalRejects

		for _, mac := range n.NetIf.Links() {
			if ch := n.NetIf.Channel(mac); ch != nil {
				st := ch.Stats()
				c.sdusSent += st.SDUsSent
				c.framesSent += st.FramesSent
				c.stalls += st.Stalls
			}
		}
		ni := n.NetIf.Stats()
		c.netifQueueDrops += ni.QueueDrops
		c.netifLinkDrops += ni.LinkDrops

		ip := n.Stack.Stats()
		c.ipSent += ip.Sent
		c.ipForwarded += ip.Forwarded
		c.ipQueueDrops += ip.QueueDrops
		c.ipNoRoute += ip.NoRoute

		co := n.Coap.Stats()
		c.coapRequests += co.RequestsSent
		c.coapRetrans += co.Retransmissions
		c.coapDuplicates += co.Duplicates
		c.coapGiveUps += co.GiveUps

		if n.RPL != nil {
			r := n.RPL.Stats()
			c.dioSent += r.DIOSent
			c.daoSent += r.DAOSent
			c.parentSwitches += r.ParentSwitches
			c.localRepairs += r.LocalRepairs
		}
	}
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// metrics returns the count-derived per-layer metrics.
func (c layerCounts) metrics() []metric {
	return []metric{
		{"sim.events", float64(c.events), "count"},
		{"phy.tx", float64(c.phyTX), "count"},
		{"phy.rx_per_tx", ratio(c.phyDelivered, c.phyTX), "ratio"},
		{"phy.collision_share", ratio(c.phyCollisions, c.phyTX), "ratio"},
		{"ble.conn_events", float64(c.bleEventsPlanned), "count"},
		{"ble.empty_event_share", ratio(c.bleEventsEmpty, c.bleEventsPlanned), "ratio"},
		{"ble.skipped_event_share", ratio(c.bleEventsSkipped, c.bleEventsPlanned), "ratio"},
		{"ble.retrans_share", ratio(c.bleRetrans, c.bleDataPDUs), "ratio"},
		{"ble.sched_preempts", float64(c.blePreempts), "count"},
		{"statconn.links_opened", float64(c.linksOpened), "count"},
		{"statconn.link_losses", float64(c.linkLosses), "count"},
		{"statconn.reconnects", float64(c.reconnects), "count"},
		{"statconn.interval_rejects", float64(c.intervalRejects), "count"},
		{"l2cap.sdus_sent", float64(c.sdusSent), "count"},
		{"l2cap.frames_per_sdu", ratio(c.framesSent, c.sdusSent), "ratio"},
		{"l2cap.stalls", float64(c.stalls), "count"},
		{"core.netif_queue_drops", float64(c.netifQueueDrops), "count"},
		{"core.netif_link_drops", float64(c.netifLinkDrops), "count"},
		{"ip6.forwarded_per_sent", ratio(c.ipForwarded, c.ipSent), "ratio"},
		{"ip6.queue_drops", float64(c.ipQueueDrops), "count"},
		{"ip6.no_route", float64(c.ipNoRoute), "count"},
		{"coap.requests", float64(c.coapRequests), "count"},
		{"coap.retransmissions", float64(c.coapRetrans), "count"},
		{"coap.duplicates", float64(c.coapDuplicates), "count"},
		{"coap.give_ups", float64(c.coapGiveUps), "count"},
		{"rpl.dio_sent", float64(c.dioSent), "count"},
		{"rpl.dao_sent", float64(c.daoSent), "count"},
		{"rpl.parent_switches", float64(c.parentSwitches), "count"},
		{"rpl.local_repairs", float64(c.localRepairs), "count"},
		{"trace.events", float64(c.traceEvents), "count"},
		{"metrics.stream_bytes", float64(c.streamBytes), "bytes"},
	}
}
