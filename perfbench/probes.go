package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"blemesh/internal/coap"
	"blemesh/internal/ip6"
	"blemesh/internal/phy"
	"blemesh/internal/pktbuf"
	"blemesh/internal/sim"
	"blemesh/internal/sixlo"
)

// The probes time one layer at a time through its exported functions,
// sized from a workload instance's shape and counts. Each returns host ns
// per operation.

// Per-probe operation caps keep a traced run inside its time budget.
const (
	maxQueueOps = 1 << 21
	maxPhyTX    = 200_000
	maxCodecOps = 200_000
)

func capOps(n uint64, max int) int {
	if n == 0 {
		return 1
	}
	if n > uint64(max) {
		return max
	}
	return int(n)
}

// producerMAC and consumerMAC follow exp's address plan (0x5A0000000000+id),
// so the probes' packets compress exactly as a producer→sink packet does.
const (
	consumerMAC = 0x5A0000000000 + 1
	producerMAC = 0x5A0000000000 + 2
)

// queueNsOp runs the sim event queue at the workload's pending population
// and engine: every event reposts itself on a stack-like period and arms
// and cancels an acknowledgement timer, so one op is a pop, two posts and a
// cancel.
func queueNsOp(sh shape, ops int) (float64, error) {
	s := sim.NewWithEngine(1, sh.engine)
	periods := []sim.Duration{625 * sim.Microsecond, 7500 * sim.Microsecond,
		75 * sim.Millisecond, 4 * sim.Second}
	pop := sh.pending
	if pop < 1 {
		pop = 1
	}
	fired, ackFired := 0, 0
	ack := func() { ackFired++ }
	for i := 0; i < pop; i++ {
		p := periods[i%len(periods)]
		var tick func()
		tick = func() {
			fired++
			if fired < ops {
				s.Post(p, tick)
				s.Cancel(s.After(100*sim.Millisecond, ack))
			}
		}
		s.Post(sim.Duration(i)*sim.Microsecond, tick)
	}
	start := time.Now()
	s.RunAll()
	el := time.Since(start)
	if ackFired != 0 || fired < ops {
		return 0, fmt.Errorf("queue probe: %d cancelled timers fired, %d/%d events", ackFired, fired, ops)
	}
	return float64(el.Nanoseconds()) / float64(fired), nil
}

// phyTxNsOp transmits on a medium holding every radio of the workload at
// its position and range, one transmission at a time with all other radios
// listening: the carrier scan at TX start plus the delivery scan at TX end.
func phyTxNsOp(sh shape, txs int) (float64, error) {
	const ch phy.Channel = 5
	const airtime = sim.Millisecond
	s := sim.New(1)
	m := phy.NewMedium(s)
	if sh.topo.Range > 0 {
		m.SetRange(sh.topo.Range)
	}
	ids := sh.topo.Nodes()
	m.ReserveRadios(len(ids))
	radios := make([]*phy.Radio, len(ids))
	var rx uint64
	for i, id := range ids {
		r := m.NewRadio()
		if p, ok := sh.topo.Pos[id]; ok {
			r.SetPosition(p.X, p.Y, p.Z)
		}
		r.SetReceiver(func(phy.Packet, phy.Channel, bool) { rx++ })
		r.StartListen(ch)
		radios[i] = r
	}
	rng := rand.New(rand.NewSource(1))
	start := time.Now()
	for i := 0; i < txs; i++ {
		r := radios[rng.Intn(len(radios))]
		r.Transmit(ch, phy.Packet{Bits: 8 * 100}, airtime, nil)
		s.Run(s.Now() + airtime)
		r.StartListen(ch)
	}
	el := time.Since(start)
	if len(radios) > 1 && sh.topo.Range == 0 && rx != uint64(txs)*uint64(len(radios)-1) {
		return 0, fmt.Errorf("phy probe: %d receptions for %d transmissions to %d radios", rx, txs, len(radios)-1)
	}
	return float64(el.Nanoseconds()) / float64(txs), nil
}

// workloadPacket is the workload's producer request as an IPv6 packet:
// the CoAP request with the workload's payload in UDP in IPv6.
func workloadPacket(payload int) ([]byte, error) {
	src := ip6.ULA(ip6.DefaultPrefix, producerMAC)
	dst := ip6.ULA(ip6.DefaultPrefix, consumerMAC)
	msg := &coap.Message{Type: coap.NON, Code: coap.CodeGET, MessageID: 1,
		Token: []byte{1, 2}, Payload: make([]byte, payload)}
	msg.SetPath("s")
	enc, err := msg.Encode()
	if err != nil {
		return nil, fmt.Errorf("encode request: %w", err)
	}
	udp := ip6.EncodeUDP(src, dst, coap.DefaultPort, coap.DefaultPort, enc)
	pkt := make([]byte, ip6.HeaderLen+len(udp))
	h := ip6.Header{NextHeader: ip6.ProtoUDP, HopLimit: 64, Src: src, Dst: dst}
	h.Put(pkt[:ip6.HeaderLen], len(udp))
	copy(pkt[ip6.HeaderLen:], udp)
	return pkt, nil
}

// iphcNsOp compresses and decompresses the workload's packet in a pooled
// buffer, as the BLE adapter does on each hop.
func iphcNsOp(sh shape, ops int) (float64, error) {
	pkt, err := workloadPacket(sh.payload)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	for i := 0; i < ops; i++ {
		b := pktbuf.Get(pktbuf.DefaultHeadroom, len(pkt))
		copy(b.Bytes(), pkt)
		if err := sixlo.CompressBuf(b, producerMAC, consumerMAC, sixlo.DefaultContexts); err != nil {
			return 0, fmt.Errorf("iphc probe: compress: %w", err)
		}
		if err := sixlo.DecompressBuf(b, producerMAC, consumerMAC, sixlo.DefaultContexts); err != nil {
			return 0, fmt.Errorf("iphc probe: decompress: %w", err)
		}
		if i == 0 && !bytes.Equal(b.Bytes(), pkt) {
			return 0, fmt.Errorf("iphc probe: round trip changed the packet")
		}
		b.Put()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(ops), nil
}

// wire joins two ip6 stacks through an in-memory interface with a fixed
// delivery delay.
type wire struct {
	s       *sim.Sim
	peer    *ip6.Stack
	peerMAC uint64
}

func (w *wire) Output(_ uint64, pkt *pktbuf.Buf, pid uint64) bool {
	peer := w.peer
	w.s.Post(sim.Millisecond, func() { peer.InputBuf(pkt, pid) })
	return true
}
func (w *wire) HasNeighbor(mac uint64) bool { return mac == w.peerMAC }
func (w *wire) MTU() int                    { return 1280 }

func stackPair(s *sim.Sim) (producer, consumer *ip6.Stack) {
	producer = ip6.NewStack(s, producerMAC)
	consumer = ip6.NewStack(s, consumerMAC)
	producer.AddInterface(&wire{s: s, peer: consumer, peerMAC: consumerMAC})
	consumer.AddInterface(&wire{s: s, peer: producer, peerMAC: producerMAC})
	return producer, consumer
}

// udpNsOp sends the workload's CoAP-sized datagrams between two stacks:
// one op is a SendUDP plus the peer's input and demux.
func udpNsOp(sh shape, ops int) (float64, error) {
	s := sim.New(1)
	a, b := stackPair(s)
	got := 0
	b.ListenUDP(coap.DefaultPort, func(ip6.Addr, uint16, []byte) { got++ })
	payload := make([]byte, sh.payload+16)
	dst := b.GlobalAddr()
	start := time.Now()
	for i := 0; i < ops; i++ {
		if err := a.SendUDP(dst, coap.DefaultPort, coap.DefaultPort, payload); err != nil {
			return 0, fmt.Errorf("udp probe: %w", err)
		}
		s.Run(s.Now() + sim.Millisecond)
	}
	el := time.Since(start)
	if got != ops {
		return 0, fmt.Errorf("udp probe: %d of %d datagrams delivered", got, ops)
	}
	return float64(el.Nanoseconds()) / float64(ops), nil
}

// serveNsReq drives one CoAP server endpoint with the workload's request
// rate at its busiest sink for the workload's traffic time: requests
// arrive as raw NON datagrams on an even schedule and every one must be
// answered. One op is the request's encode and send, the server's receive,
// dedup, handler and reply, and the reply's delivery.
func serveNsReq(sh shape) (float64, int, error) {
	s := sim.New(1)
	a, b := stackPair(s)
	server := coap.NewEndpoint(s, b, 0)
	server.Handler = func(ip6.Addr, *coap.Message) *coap.Message {
		return &coap.Message{Type: coap.ACK, Code: coap.CodeValid}
	}
	answered := 0
	a.ListenUDP(coap.DefaultPort, func(ip6.Addr, uint16, []byte) { answered++ })

	n := int(sh.serveRate * sh.trafficSpan.Seconds())
	if n < 1 {
		n = 1
	}
	gap := sh.trafficSpan / sim.Duration(n)
	dst := b.GlobalAddr()
	payload := make([]byte, sh.payload)
	var sendErr error
	for i := 0; i < n; i++ {
		mid := uint16(i)
		s.PostAt(sim.Time(i)*gap, func() {
			m := &coap.Message{Type: coap.NON, Code: coap.CodeGET, MessageID: mid,
				Token: []byte{byte(mid >> 8), byte(mid)}, Payload: payload}
			m.SetPath("s")
			enc, err := m.Encode()
			if err == nil {
				err = a.SendUDP(dst, coap.DefaultPort, coap.DefaultPort, enc)
			}
			if err != nil && sendErr == nil {
				sendErr = err
			}
		})
	}
	start := time.Now()
	s.RunAll()
	el := time.Since(start)
	if sendErr != nil {
		return 0, n, fmt.Errorf("coap probe: %w", sendErr)
	}
	if answered != n {
		return 0, n, fmt.Errorf("coap probe: %d of %d requests answered", answered, n)
	}
	return float64(el.Nanoseconds()) / float64(n), n, nil
}
