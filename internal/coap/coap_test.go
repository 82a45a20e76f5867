package coap

import (
	"bytes"
	"testing"
	"testing/quick"

	"blemesh/internal/ip6"
	"blemesh/internal/sim"
)

func TestMessageCodecRoundTrip(t *testing.T) {
	m := &Message{
		Type:      NON,
		Code:      CodeGET,
		MessageID: 0xBEEF,
		Token:     []byte{1, 2},
		Payload:   bytes.Repeat([]byte{0xAB}, 39),
	}
	m.SetPath("sensor", "temp")
	m.AddOption(OptContentFormat, []byte{0})
	enc, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != NON || got.Code != CodeGET || got.MessageID != 0xBEEF {
		t.Fatalf("header mismatch: %+v", got)
	}
	if !bytes.Equal(got.Token, m.Token) || !bytes.Equal(got.Payload, m.Payload) {
		t.Fatal("token/payload mismatch")
	}
	if got.Path() != "/sensor/temp" {
		t.Fatalf("path = %q", got.Path())
	}
}

func TestMessageSizeMatchesPaperWorkload(t *testing.T) {
	// The paper's requests carry a 39-byte payload inside 100-byte IP
	// packets: CoAP framing must stay under 52 bytes of the UDP payload
	// (100 - 40 IPv6 - 8 UDP).
	m := &Message{Type: NON, Code: CodeGET, MessageID: 1, Token: []byte{1, 2},
		Payload: make([]byte, 39)}
	m.SetPath("p")
	enc, _ := m.Encode()
	if len(enc) > 52 {
		t.Fatalf("request encoding %d bytes, exceeds the paper's framing budget", len(enc))
	}
}

func TestOptionExtendedDeltas(t *testing.T) {
	m := &Message{Type: CON, Code: CodePOST, MessageID: 5}
	m.AddOption(1, []byte{9})
	m.AddOption(300, bytes.Repeat([]byte{7}, 20)) // delta > 269
	m.AddOption(2000, bytes.Repeat([]byte{8}, 300))
	enc, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Options) != 3 || got.Options[1].Number != 300 || got.Options[2].Number != 2000 {
		t.Fatalf("options mismatch: %+v", got.Options)
	}
	if len(got.Options[2].Value) != 300 {
		t.Fatalf("long option value lost: %d", len(got.Options[2].Value))
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		{},
		{0x40, 1},                      // short
		{0x80, 1, 0, 0},                // version 2
		{0x49, 1, 0, 0},                // TKL 9
		{0x40, 1, 0, 0, 0xFF},          // empty payload after marker
		{0x40, 1, 0, 0, 0xF1, 2},       // reserved nibble 15
		{0x40, 1, 0, 0, 0xD1},          // truncated extension
		{0x40, 1, 0, 0, 0x05, 1, 2, 3}, // truncated option value (len 5, 3 present)
	}
	for i, c := range cases {
		if _, err := Decode(c); err == nil {
			t.Errorf("case %d: bad message accepted", i)
		}
	}
}

func TestQuickCodecRoundTrip(t *testing.T) {
	f := func(typ byte, code byte, mid uint16, tok []byte, payload []byte) bool {
		if len(tok) > 8 {
			tok = tok[:8]
		}
		if len(payload) > 500 {
			payload = payload[:500]
		}
		m := &Message{Type: Type(typ & 3), Code: Code(code), MessageID: mid,
			Token: tok, Payload: payload}
		m.SetPath("x")
		enc, err := m.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(enc)
		if err != nil {
			return false
		}
		return got.Type == m.Type && got.Code == m.Code && got.MessageID == mid &&
			bytes.Equal(got.Token, tok) && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCodeHelpers(t *testing.T) {
	if !CodeGET.IsRequest() || CodeContent.IsRequest() || CodeEmpty.IsRequest() {
		t.Fatal("IsRequest misclassifies")
	}
	if CodeContent.String() != "2.05" || CodeNotFound.String() != "4.04" {
		t.Fatalf("code strings: %v %v", CodeContent, CodeNotFound)
	}
}

func TestNONRequestResponse(t *testing.T) {
	s := sim.New(1)
	a, b, _, _ := twoStacks(s, 5*sim.Millisecond)
	client := NewEndpoint(s, a, 0)
	server := NewEndpoint(s, b, 0)
	server.Handler = func(from ip6.Addr, req *Message) *Message {
		if req.Path() != "/data" {
			return &Message{Type: ACK, Code: CodeNotFound}
		}
		return &Message{Type: ACK, Code: CodeValid}
	}
	var resp *Message
	var rtt sim.Duration
	req := &Message{Type: NON, Code: CodeGET, Payload: make([]byte, 39)}
	req.SetPath("data")
	if err := client.Request(b.GlobalAddr(), req, func(m *Message, d sim.Duration, _ error) {
		resp, rtt = m, d
	}); err != nil {
		t.Fatal(err)
	}
	s.Run(sim.Second)
	if resp == nil || resp.Code != CodeValid || resp.Type != ACK {
		t.Fatalf("response: %+v", resp)
	}
	if rtt != 10*sim.Millisecond {
		t.Fatalf("rtt = %v, want 10ms", rtt)
	}
	if client.Stats().ResponsesMatched != 1 || server.Stats().RequestsServed != 1 {
		t.Fatalf("stats: %+v / %+v", client.Stats(), server.Stats())
	}
}

func TestCONRetransmitsUntilAnswered(t *testing.T) {
	s := sim.New(2)
	a, b, wa, _ := twoStacks(s, sim.Millisecond)
	// Drop the first two requests.
	drops := 2
	wa.drop = func() bool {
		if drops > 0 {
			drops--
			return true
		}
		return false
	}
	client := NewEndpoint(s, a, 0)
	server := NewEndpoint(s, b, 0)
	server.Handler = func(ip6.Addr, *Message) *Message {
		return &Message{Type: ACK, Code: CodeContent, Payload: []byte("ok")}
	}
	var resp *Message
	req := &Message{Type: CON, Code: CodeGET}
	req.SetPath("r")
	client.Request(b.GlobalAddr(), req, func(m *Message, _ sim.Duration, _ error) { resp = m })
	s.Run(30 * sim.Second)
	if resp == nil || resp.Code != CodeContent {
		t.Fatalf("CON exchange failed: %+v", resp)
	}
	if client.Stats().Retransmissions < 2 {
		t.Fatalf("retransmissions = %d, want ≥ 2", client.Stats().Retransmissions)
	}
}

func TestCONGivesUpAfterMaxRetransmit(t *testing.T) {
	s := sim.New(3)
	a, b, wa, _ := twoStacks(s, sim.Millisecond)
	wa.drop = func() bool { return true } // black hole
	client := NewEndpoint(s, a, 0)
	NewEndpoint(s, b, 0)
	var failure error
	req := &Message{Type: CON, Code: CodeGET}
	client.Request(b.GlobalAddr(), req, func(m *Message, _ sim.Duration, err error) {
		if m == nil {
			failure = err
		}
	})
	s.Run(200 * sim.Second)
	if failure == nil {
		t.Fatal("CON request never timed out")
	}
	if failure != ErrGaveUp {
		t.Fatalf("failure = %v, want ErrGaveUp", failure)
	}
	if got := client.Stats().Retransmissions; got != MaxRetransmit {
		t.Fatalf("retransmissions = %d, want %d", got, MaxRetransmit)
	}
	if client.Stats().GiveUps != 1 || client.Stats().Timeouts != 0 {
		t.Fatalf("give-up misclassified: %+v", client.Stats())
	}
}

func TestNONTimesOutWithoutRetransmit(t *testing.T) {
	s := sim.New(4)
	a, b, wa, _ := twoStacks(s, sim.Millisecond)
	wa.drop = func() bool { return true }
	client := NewEndpoint(s, a, 0)
	NewEndpoint(s, b, 0)
	var failure error
	req := &Message{Type: NON, Code: CodeGET}
	client.Request(b.GlobalAddr(), req, func(m *Message, _ sim.Duration, err error) {
		if m == nil {
			failure = err
		}
	})
	s.Run(200 * sim.Second)
	if failure == nil {
		t.Fatal("NON request never expired")
	}
	if failure != ErrTimeout {
		t.Fatalf("failure = %v, want ErrTimeout", failure)
	}
	if client.Stats().Retransmissions != 0 {
		t.Fatal("NON request was retransmitted")
	}
	if client.Stats().Timeouts != 1 || client.Stats().GiveUps != 0 {
		t.Fatalf("timeout misclassified: %+v", client.Stats())
	}
}

func TestDuplicateRequestSuppressed(t *testing.T) {
	s := sim.New(5)
	a, b, _, _ := twoStacks(s, sim.Millisecond)
	NewEndpoint(s, a, 0)
	server := NewEndpoint(s, b, 0)
	served := 0
	server.Handler = func(ip6.Addr, *Message) *Message {
		served++
		return &Message{Type: ACK, Code: CodeValid}
	}
	// Hand-deliver the same encoded request twice (as a CON retransmit
	// arriving after the response was lost).
	req := &Message{Type: CON, Code: CodeGET, MessageID: 77, Token: []byte{9}}
	enc, _ := req.Encode()
	b.Input(buildUDP(a, b, enc), 0)
	b.Input(buildUDP(a, b, enc), 0)
	s.Run(sim.Second)
	if served != 1 {
		t.Fatalf("handler ran %d times for duplicate MID", served)
	}
	if server.Stats().Duplicates != 1 {
		t.Fatalf("duplicates = %d", server.Stats().Duplicates)
	}
}

func buildUDP(from, to *ip6.Stack, payload []byte) []byte {
	d := ip6.EncodeUDP(from.GlobalAddr(), to.GlobalAddr(), DefaultPort, DefaultPort, payload)
	h := ip6.Header{NextHeader: ip6.ProtoUDP, HopLimit: 64,
		Src: from.GlobalAddr(), Dst: to.GlobalAddr()}
	return h.Encode(d)
}

func TestTokensDistinguishConcurrentRequests(t *testing.T) {
	s := sim.New(6)
	a, b, _, _ := twoStacks(s, sim.Millisecond)
	client := NewEndpoint(s, a, 0)
	server := NewEndpoint(s, b, 0)
	server.Handler = func(_ ip6.Addr, req *Message) *Message {
		return &Message{Type: ACK, Code: CodeContent, Payload: []byte(req.Path())}
	}
	got := map[string]string{}
	for _, path := range []string{"one", "two", "three"} {
		path := path
		req := &Message{Type: NON, Code: CodeGET}
		req.SetPath(path)
		client.Request(b.GlobalAddr(), req, func(m *Message, _ sim.Duration, _ error) {
			if m != nil {
				got[path] = string(m.Payload)
			}
		})
	}
	s.Run(sim.Second)
	for _, path := range []string{"one", "two", "three"} {
		if got[path] != "/"+path {
			t.Fatalf("response for %q = %q", path, got[path])
		}
	}
}

// BenchmarkEndpointServeHotSink measures the CoAP endpoint round trip at a
// sink serving the Fig. 9(a) request rate with a warm dedup cache.
// blemesh-bench records it as layer_coap_ns_op and layer_coap_allocs_op.
func BenchmarkEndpointServeHotSink(b *testing.B) {
	ServeHotSinkBench(b)
}
