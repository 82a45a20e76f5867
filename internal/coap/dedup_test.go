package coap

import (
	"math/rand"
	"testing"

	"blemesh/internal/ip6"
	"blemesh/internal/sim"
)

// dedupServer is a server endpoint on a stack of its own that counts
// handler runs. Requests are injected as raw datagrams, so the tests pick the
// source address, port, MID and arrival time.
type dedupServer struct {
	s      *sim.Sim
	st     *ip6.Stack
	ep     *Endpoint
	served int
}

func newDedupServer(seed int64) *dedupServer {
	d := &dedupServer{s: sim.New(seed)}
	d.st = ip6.NewStack(d.s, 0x0B)
	d.ep = NewEndpoint(d.s, d.st, 0)
	d.ep.Handler = func(ip6.Addr, *Message) *Message {
		d.served++
		return nil
	}
	return d
}

// peerAddr returns a distinct source address per peer index.
func peerAddr(i int) ip6.Addr {
	a := ip6.Addr{0xfd, 0x00, 15: 0}
	a[14], a[15] = byte(i>>8), byte(i)
	return a
}

// inject delivers a NON GET with message ID mid from src:port right now.
func (d *dedupServer) inject(src ip6.Addr, port, mid uint16) {
	req := &Message{Type: NON, Code: CodeGET, MessageID: mid, Token: []byte{1}}
	enc, _ := req.Encode()
	dst := d.st.GlobalAddr()
	h := ip6.Header{NextHeader: ip6.ProtoUDP, HopLimit: 64, Src: src, Dst: dst}
	d.st.Input(h.Encode(ip6.EncodeUDP(src, dst, port, DefaultPort, enc)), 0)
}

// at runs the simulation to t, then injects the request.
func (d *dedupServer) at(t sim.Time, src ip6.Addr, port, mid uint16) {
	d.s.Run(t)
	d.inject(src, port, mid)
}

func TestDedupKeysOnSourcePort(t *testing.T) {
	// RFC 7252 §4.5: message IDs are scoped to the source endpoint, so the
	// same MID from two ports of one address is two requests.
	d := newDedupServer(1)
	d.at(sim.Second, peerAddr(1), DefaultPort, 42)
	d.at(2*sim.Second, peerAddr(1), DefaultPort+1, 42)
	if d.served != 2 || d.ep.Stats().Duplicates != 0 {
		t.Fatalf("served %d, duplicates %d; want 2, 0", d.served, d.ep.Stats().Duplicates)
	}
}

func TestDedupReplayInsideWindowSuppressed(t *testing.T) {
	d := newDedupServer(2)
	t0 := 5 * sim.Second
	d.at(t0, peerAddr(1), DefaultPort, 7)
	d.at(t0+DedupWindow-1, peerAddr(1), DefaultPort, 7)
	if d.served != 1 || d.ep.Stats().Duplicates != 1 {
		t.Fatalf("served %d, duplicates %d; want 1, 1", d.served, d.ep.Stats().Duplicates)
	}
}

func TestDedupReplayAtWindowServedAgain(t *testing.T) {
	d := newDedupServer(3)
	t0 := 5 * sim.Second
	d.at(t0, peerAddr(1), DefaultPort, 7)
	d.at(t0+DedupWindow, peerAddr(1), DefaultPort, 7)
	if d.served != 2 || d.ep.Stats().Duplicates != 0 {
		t.Fatalf("served %d, duplicates %d; want 2, 0", d.served, d.ep.Stats().Duplicates)
	}
}

func TestDedupResetForgets(t *testing.T) {
	d := newDedupServer(4)
	d.at(sim.Second, peerAddr(1), DefaultPort, 7)
	d.ep.Reset()
	d.at(2*sim.Second, peerAddr(1), DefaultPort, 7)
	if d.served != 2 || d.ep.Stats().Duplicates != 0 {
		t.Fatalf("served %d, duplicates %d; want 2, 0", d.served, d.ep.Stats().Duplicates)
	}
}

// hotSink feeds the Fig. 9(a) sink load: 14 peers, each sending every
// 127 ms (~110 req/s in total) with its own MID sequence, for the given
// span. It returns each request's arrival time, per peer.
func (d *dedupServer) hotSink(span sim.Duration) [][]sim.Time {
	const peers, period = 14, 127 * sim.Millisecond
	sent := make([][]sim.Time, peers)
	for t := sim.Time(0); t < span; t += period {
		for p := 0; p < peers; p++ {
			at := t + sim.Time(p)*9*sim.Millisecond
			d.at(at, peerAddr(p), DefaultPort, uint16(len(sent[p])))
			sent[p] = append(sent[p], at)
		}
	}
	return sent
}

func TestDedupHotSink(t *testing.T) {
	d := newDedupServer(5)
	sent := d.hotSink(3 * sim.Minute)
	fresh := 0
	for _, s := range sent {
		fresh += len(s)
	}
	if d.served != fresh || d.ep.Stats().Duplicates != 0 {
		t.Fatalf("served %d of %d fresh requests, %d duplicates", d.served, fresh, d.ep.Stats().Duplicates)
	}
	// Replay every request: those that arrived inside the last window are
	// suppressed, the older ones are served again.
	now := d.s.Now()
	live := 0
	for p, s := range sent {
		for mid, at := range s {
			d.inject(peerAddr(p), DefaultPort, uint16(mid))
			if now-at < DedupWindow {
				live++
			}
		}
	}
	if live <= 4096 {
		t.Fatalf("only %d requests inside the window; the load must keep >4096 live entries", live)
	}
	if got := int(d.ep.Stats().Duplicates); got != live {
		t.Fatalf("replays suppressed = %d, want %d", got, live)
	}
	if d.served != 2*fresh-live {
		t.Fatalf("served %d, want %d", d.served, 2*fresh-live)
	}
}

func TestDedupCacheHoldsOnlyWindow(t *testing.T) {
	// A burst below any size threshold, then a quiet period: the next
	// request must leave exactly the keys of the last window behind.
	d := newDedupServer(6)
	for i := 0; i < 3000; i++ {
		d.at(sim.Time(i)*3*sim.Millisecond, peerAddr(i%5), DefaultPort, uint16(i))
	}
	for i := 0; i < 10; i++ {
		d.at(100*sim.Second+sim.Time(i)*sim.Second, peerAddr(9), DefaultPort, uint16(i))
	}
	c := d.ep.seen
	if c.n != 10 || len(c.at) != 10 {
		t.Fatalf("cache holds %d ring / %d map entries, want 10", c.n, len(c.at))
	}
	for i := 0; i < 10; i++ {
		if !c.has(c.key(source{peerAddr(9), DefaultPort}, uint16(i))) {
			t.Fatalf("recent request %d missing from the cache", i)
		}
	}
}

func TestDedupCacheMatchesNaiveWindow(t *testing.T) {
	// Random arrivals against the definition "duplicate iff served less
	// than DedupWindow ago", across ring growth and wrap-around.
	rng := rand.New(rand.NewSource(1))
	c := newDedupCache()
	last := map[uint64]sim.Time{}
	now := sim.Time(0)
	wrappedGrowths := 0
	for i := 0; i < 300000; i++ {
		// Lulls and alternating rates push the live count up and down.
		step := 20 * sim.Millisecond
		if i/20000%2 == 1 {
			step = 4 * sim.Millisecond
		}
		if rng.Intn(5000) == 0 {
			step = 2 * DedupWindow
		}
		now += sim.Time(rng.Int63n(int64(step)))
		c.expire(now - DedupWindow)
		key := c.key(source{peerAddr(rng.Intn(40)), DefaultPort + uint16(rng.Intn(2))}, uint16(rng.Intn(1000)))
		at, ok := last[key]
		want := ok && now-at < DedupWindow
		if got := c.has(key); got != want {
			t.Fatalf("step %d: has = %v, want %v", i, got, want)
		}
		if !want {
			if c.n == len(c.ring) && c.head != 0 {
				wrappedGrowths++
			}
			c.add(key, now)
			last[key] = now
		}
		if c.n != len(c.at) {
			t.Fatalf("step %d: ring holds %d keys, map %d", i, c.n, len(c.at))
		}
	}
	if wrappedGrowths == 0 {
		t.Fatal("the ring never grew while wrapped")
	}
}
