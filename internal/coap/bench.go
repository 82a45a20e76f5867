package coap

import (
	"testing"

	"blemesh/internal/ip6"
	"blemesh/internal/pktbuf"
	"blemesh/internal/sim"
)

// hotSinkInterval spaces requests at the Fig. 9(a) sink's rate: 14
// producers at 100 ms ±50 ms deliver ~110 requests per second to the
// consumer, which keeps ~6.6k entries in its dedup cache.
const hotSinkInterval = sim.Second / 110

// wireIf is an ip6 interface that hands every packet to a peer stack after
// a fixed delay, optionally dropping it first.
type wireIf struct {
	peer    *ip6.Stack
	peerMAC uint64
	s       *sim.Sim
	delay   sim.Duration
	drop    func() bool
}

func (w *wireIf) Output(mac uint64, pkt *pktbuf.Buf, pid uint64) bool {
	defer pkt.Put()
	if w.drop != nil && w.drop() {
		return true // swallowed
	}
	cp := append([]byte(nil), pkt.Bytes()...)
	w.s.After(w.delay, func() { w.peer.Input(cp, pid) })
	return true
}
func (w *wireIf) HasNeighbor(mac uint64) bool { return mac == w.peerMAC }
func (w *wireIf) MTU() int                    { return 1280 }

// twoStacks wires two ip6 stacks back to back through in-memory links.
func twoStacks(s *sim.Sim, delay sim.Duration) (*ip6.Stack, *ip6.Stack, *wireIf, *wireIf) {
	a := ip6.NewStack(s, 0x0A)
	b := ip6.NewStack(s, 0x0B)
	wa := &wireIf{peer: b, peerMAC: 0x0B, s: s, delay: delay}
	wb := &wireIf{peer: a, peerMAC: 0x0A, s: s, delay: delay}
	a.AddInterface(wa)
	b.AddInterface(wb)
	return a, b, wa, wb
}

// ServeHotSinkBench drives the CoAP endpoint round trip at a hot sink: a
// client sends the paper's NON GET (39-byte payload) to a server over two
// stacks joined in memory, one request per hotSinkInterval of simulated
// time. The server's dedup cache is warmed to its steady state (a full
// DedupWindow of requests) outside the timed region, so ns/op and allocs/op
// are the per-request cost of a sink under the Fig. 9(a) load.
func ServeHotSinkBench(b *testing.B) {
	s := sim.New(1)
	ca, sa, _, _ := twoStacks(s, sim.Millisecond)
	client := NewEndpoint(s, ca, 0)
	server := NewEndpoint(s, sa, 0)
	server.Handler = func(ip6.Addr, *Message) *Message {
		return &Message{Type: ACK, Code: CodeValid}
	}
	dst := sa.GlobalAddr()
	payload := make([]byte, 39)
	request := func() {
		req := &Message{Type: NON, Code: CodeGET, Payload: payload}
		req.SetPath("s")
		if err := client.Request(dst, req, nil); err != nil {
			b.Fatal(err)
		}
		s.Run(s.Now() + hotSinkInterval)
	}
	for i := sim.Duration(0); i <= DedupWindow/hotSinkInterval; i++ {
		request()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		request()
	}
	b.StopTimer()
	if st := server.Stats(); st.Duplicates != 0 {
		b.Fatalf("server suppressed %d fresh requests as duplicates", st.Duplicates)
	}
}
