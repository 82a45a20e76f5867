package coap

import (
	"encoding/binary"
	"errors"
	"fmt"

	"blemesh/internal/ip6"
	"blemesh/internal/sim"
	"blemesh/internal/trace"
)

// Transmission parameters (RFC 7252 §4.8).
const (
	// AckTimeout is the initial confirmable retransmission timeout.
	AckTimeout = 2 * sim.Second
	// AckRandomFactorNum/Den express the 1.5 randomisation factor.
	AckRandomFactorNum = 3
	AckRandomFactorDen = 2
	// MaxRetransmit bounds confirmable retransmissions.
	MaxRetransmit = 4
	// ResponseTimeout is how long a pending exchange (CON or NON) waits
	// for its response before the endpoint reports it lost. The paper's
	// RTT CDFs extend to tens of seconds under load, so this is generous.
	ResponseTimeout = 120 * sim.Second
)

// ErrGaveUp reports a confirmable exchange abandoned after MAX_RETRANSMIT
// retransmissions (RFC 7252 §4.2). Experiments count abandoned requests
// separately from responses that were merely lost in transit.
var ErrGaveUp = errors.New("coap: gave up after MAX_RETRANSMIT retransmissions")

// ErrTimeout reports an exchange whose response never arrived within
// ResponseTimeout (the NON path, or a CON whose retransmissions were
// still pending when the overall deadline hit).
var ErrTimeout = errors.New("coap: response timeout")

// Stats counts endpoint-level events; the experiment harness derives the
// CoAP PDR from RequestsSent and ResponsesMatched.
type Stats struct {
	RequestsSent     uint64
	Retransmissions  uint64
	ResponsesMatched uint64
	Timeouts         uint64 // exchanges expired waiting for a response
	GiveUps          uint64 // CON exchanges abandoned at MAX_RETRANSMIT
	RequestsServed   uint64
	Duplicates       uint64
	SendErrors       uint64
	Unmatched        uint64
}

// Handler produces a response for an incoming request. Returning nil means
// no response (the request is silently absorbed).
type Handler func(from ip6.Addr, req *Message) *Message

// ResponseFunc receives the matched response for a request. On failure resp
// is nil and err distinguishes the outcome: ErrGaveUp when a confirmable
// request exhausted MAX_RETRANSMIT, ErrTimeout when the response never
// arrived within ResponseTimeout.
type ResponseFunc func(resp *Message, rtt sim.Duration, err error)

// pendingReq is one outstanding request exchange.
type pendingReq struct {
	dst      ip6.Addr
	msg      *Message
	cb       ResponseFunc
	sentAt   sim.Time
	pid      uint64 // provenance ID of the latest (re)transmission
	retries  int
	retryEvt sim.Timer
	expire   sim.Timer
}

// Endpoint is a CoAP client+server bound to one UDP port of a node's stack.
type Endpoint struct {
	s    *sim.Sim
	st   *ip6.Stack
	port uint16

	mid    uint16
	tokSeq uint64
	// pending (by token) and seen (recent (peer, MID) pairs, the CON
	// dedup cache) are allocated on first use: a city-scale build creates
	// 10k+ endpoints whose maps mostly stay empty until traffic starts.
	// Reads of nil maps are already safe; the two write sites go through
	// ensurePending/ensureSeen.
	pending map[string]*pendingReq
	seen    map[string]sim.Time
	stats   Stats
	Handler Handler

	tr   *trace.Log
	node string
}

// SetTrace wires the endpoint to a shared trace log, emitting request and
// response span events under the given node name.
func (ep *Endpoint) SetTrace(l *trace.Log, node string) {
	ep.tr = l
	ep.node = node
}

// NewEndpoint binds a CoAP endpoint to the stack's CoAP port.
func NewEndpoint(s *sim.Sim, st *ip6.Stack, port uint16) *Endpoint {
	ep := new(Endpoint)
	NewEndpointInto(ep, s, st, port)
	return ep
}

// NewEndpointInto initializes an endpoint in place (arena-backed
// construction). The message-ID RNG draw happens here, in build order, so
// runs stay byte-identical.
func NewEndpointInto(ep *Endpoint, s *sim.Sim, st *ip6.Stack, port uint16) {
	if port == 0 {
		port = DefaultPort
	}
	*ep = Endpoint{s: s, st: st, port: port}
	ep.mid = uint16(s.Rand().Intn(1 << 16))
	st.ListenUDP(port, ep.onUDP)
}

func (ep *Endpoint) ensurePending() {
	if ep.pending == nil {
		ep.pending = make(map[string]*pendingReq)
	}
}

func (ep *Endpoint) ensureSeen() {
	if ep.seen == nil {
		ep.seen = make(map[string]sim.Time)
	}
}

// Stats returns a copy of the endpoint counters.
func (ep *Endpoint) Stats() Stats { return ep.stats }

// NewMessageID returns the next message ID.
func (ep *Endpoint) NewMessageID() uint16 {
	ep.mid++
	return ep.mid
}

// newToken mints a unique 2-byte token (the paper's 100-byte IP packets
// imply short tokens).
func (ep *Endpoint) newToken() []byte {
	ep.tokSeq++
	tok := make([]byte, 2)
	binary.BigEndian.PutUint16(tok, uint16(ep.tokSeq))
	return tok
}

// Request sends a request to dst and invokes cb with the matched response.
// Confirmable requests are retransmitted per RFC 7252; non-confirmable
// requests are sent once. The message is assigned a fresh MID and token.
func (ep *Endpoint) Request(dst ip6.Addr, m *Message, cb ResponseFunc) error {
	m.MessageID = ep.NewMessageID()
	m.Token = ep.newToken()
	pr := &pendingReq{dst: dst, msg: m, cb: cb, sentAt: ep.s.Now()}
	key := string(m.Token)
	ep.ensurePending()
	ep.pending[key] = pr
	pid, err := ep.send(dst, m)
	if err != nil {
		delete(ep.pending, key)
		ep.stats.SendErrors++
		return err
	}
	pr.pid = pid
	ep.stats.RequestsSent++
	if ep.tr.Enabled() {
		ep.tr.EmitPkt(ep.node, trace.KindCoAPRequest, pid, 0, "dst=%v mid=%d try=1", dst, m.MessageID)
	}
	if m.Type == CON {
		ep.armRetry(pr, ep.initialTimeout())
	}
	pr.expire = ep.s.After(ResponseTimeout, func() {
		ep.fail(pr, key, ErrTimeout)
	})
	return nil
}

func (ep *Endpoint) initialTimeout() sim.Duration {
	span := AckTimeout*AckRandomFactorNum/AckRandomFactorDen - AckTimeout
	return AckTimeout + sim.Duration(ep.s.Rand().Int63n(int64(span)+1))
}

func (ep *Endpoint) armRetry(pr *pendingReq, timeout sim.Duration) {
	pr.retryEvt = ep.s.After(timeout, func() {
		if pr.retries >= MaxRetransmit {
			// RFC 7252 §4.2: MAX_RETRANSMIT attempts exhausted — the
			// exchange is abandoned, distinctly from a lost response.
			ep.fail(pr, string(pr.msg.Token), ErrGaveUp)
			return
		}
		pr.retries++
		ep.stats.Retransmissions++
		pid, err := ep.send(pr.dst, pr.msg)
		if err != nil {
			ep.stats.SendErrors++
		} else {
			pr.pid = pid
			if ep.tr.Enabled() {
				ep.tr.EmitPkt(ep.node, trace.KindCoAPRequest, pid, 0,
					"dst=%v mid=%d try=%d", pr.dst, pr.msg.MessageID, pr.retries+1)
			}
		}
		ep.armRetry(pr, timeout*2)
	})
}

func (ep *Endpoint) fail(pr *pendingReq, key string, cause error) {
	if _, live := ep.pending[key]; !live {
		return
	}
	delete(ep.pending, key)
	ep.s.Cancel(pr.retryEvt)
	ep.s.Cancel(pr.expire)
	if errors.Is(cause, ErrGaveUp) {
		ep.stats.GiveUps++
	} else {
		ep.stats.Timeouts++
	}
	if ep.tr.Enabled() {
		ep.tr.EmitPkt(ep.node, trace.KindCoAPResponse, pr.pid, ep.s.Now()-pr.sentAt, "err=%v", cause)
	}
	if pr.cb != nil {
		pr.cb(nil, 0, cause)
	}
}

// Reset drops all volatile endpoint state, as a node reboot would: pending
// exchanges vanish without callbacks (the requester's RAM is gone) and the
// dedup cache empties. Cumulative statistics and the port binding survive —
// they model the observer, not the device.
func (ep *Endpoint) Reset() {
	for key, pr := range ep.pending {
		ep.s.Cancel(pr.retryEvt)
		ep.s.Cancel(pr.expire)
		delete(ep.pending, key)
	}
	ep.seen = nil
}

// send encodes and emits a message over UDP, returning the provenance ID
// the stack assigned to the datagram.
func (ep *Endpoint) send(dst ip6.Addr, m *Message) (uint64, error) {
	b, err := m.Encode()
	if err != nil {
		return 0, err
	}
	return ep.st.SendUDPPID(dst, ep.port, ep.port, b)
}

// onUDP dispatches incoming CoAP traffic.
func (ep *Endpoint) onUDP(src ip6.Addr, srcPort uint16, data []byte) {
	m, err := Decode(data)
	if err != nil {
		return
	}
	if m.Code.IsRequest() {
		ep.handleRequest(src, srcPort, m)
		return
	}
	// Response (or empty ACK): match by token.
	pr, ok := ep.pending[string(m.Token)]
	if !ok {
		ep.stats.Unmatched++
		return
	}
	delete(ep.pending, string(m.Token))
	ep.s.Cancel(pr.retryEvt)
	ep.s.Cancel(pr.expire)
	ep.stats.ResponsesMatched++
	rtt := ep.s.Now() - pr.sentAt
	if ep.tr.Enabled() {
		ep.tr.EmitPkt(ep.node, trace.KindCoAPResponse, pr.pid, rtt, "src=%v mid=%d", src, m.MessageID)
	}
	if pr.cb != nil {
		pr.cb(m, rtt, nil)
	}
}

// handleRequest runs the handler and sends its response. Confirmable
// requests are deduplicated by (peer, MID) and acknowledged; the response
// piggybacks on the ACK as RFC 7252 §5.2.1 describes. Non-confirmable
// requests get a response of the handler's chosen type (the paper's
// consumer answers NON GETs with ACK-coded responses).
func (ep *Endpoint) handleRequest(src ip6.Addr, srcPort uint16, req *Message) {
	key := fmt.Sprintf("%v|%d", src, req.MessageID)
	if at, dup := ep.seen[key]; dup && ep.s.Now()-at < 60*sim.Second {
		ep.stats.Duplicates++
		return
	}
	ep.ensureSeen()
	ep.seen[key] = ep.s.Now()
	ep.gcSeen()
	ep.stats.RequestsServed++
	if ep.Handler == nil {
		return
	}
	resp := ep.Handler(src, req)
	if resp == nil {
		return
	}
	resp.Token = req.Token
	if req.Type == CON || resp.Type == ACK {
		// Piggybacked response: same MID, type ACK.
		resp.Type = ACK
		resp.MessageID = req.MessageID
	} else {
		resp.MessageID = ep.NewMessageID()
	}
	_, _ = ep.send(src, resp)
}

// gcSeen bounds the dedup cache.
func (ep *Endpoint) gcSeen() {
	if len(ep.seen) < 4096 {
		return
	}
	cutoff := ep.s.Now() - 60*sim.Second
	for k, at := range ep.seen {
		if at < cutoff {
			delete(ep.seen, k)
		}
	}
}
