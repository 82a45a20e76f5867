package blemesh

import (
	"fmt"
	"strings"
	"testing"
)

func TestWorldTwoNodeQuickstart(t *testing.T) {
	w := New(42)
	a := w.NewNode(NodeConfig{Name: "a", MAC: 0xA1})
	b := w.NewNode(NodeConfig{Name: "b", MAC: 0xB2})
	a.AcceptInbound(1)
	b.ConnectTo(a)
	w.Run(5 * Second)

	a.Coap.Handler = func(_ Addr, req *Message) *Message {
		return &Message{Type: CoapACK, Code: CoapContent, Payload: []byte("21.5C")}
	}
	var got string
	req := &Message{Type: CoapNON, Code: CoapGET}
	req.SetPath("temp")
	if err := b.Coap.Request(a.Addr(), req, func(m *Message, rtt Duration, _ error) {
		if m != nil {
			got = string(m.Payload)
		}
	}); err != nil {
		t.Fatal(err)
	}
	w.Run(2 * Second)
	if got != "21.5C" {
		t.Fatalf("quickstart exchange failed: %q", got)
	}
}

func TestTopologiesExported(t *testing.T) {
	if Tree().Name != "tree" || Line().Name != "line" {
		t.Fatal("topology exports broken")
	}
	if len(Tree().Links) != 14 {
		t.Fatal("tree links")
	}
}

func TestExperimentRegistryExported(t *testing.T) {
	if len(Experiments()) < 16 {
		t.Fatalf("only %d experiments exported", len(Experiments()))
	}
	rep, err := RunExperiment("table1", Options{})
	if err != nil || len(rep.Lines) == 0 {
		t.Fatalf("table1: %v", err)
	}
	if _, err := RunExperiment("bogus", Options{}); err == nil ||
		!strings.Contains(err.Error(), "unknown experiment") {
		t.Fatal("unknown experiment not rejected")
	}
}

func TestWorldInterference(t *testing.T) {
	w := New(1)
	w.JamChannel(22)
	w.AddNoise(0.01)
	a := w.NewNode(NodeConfig{Name: "a", MAC: 1})
	b := w.NewNode(NodeConfig{Name: "b", MAC: 2})
	a.AcceptInbound(1)
	b.ConnectTo(a)
	w.Run(10 * Second)
	if len(a.NetIf.Links()) != 1 {
		t.Fatal("link did not survive interference")
	}
}

func TestBuildNetworkFacade(t *testing.T) {
	nw := BuildNetwork(NetworkConfig{Seed: 5, Topology: Tree(),
		Policy: RandomIntervals{Min: 65 * Millisecond, Max: 85 * Millisecond}})
	if !nw.WaitTopology(60 * Second) {
		t.Fatal("topology")
	}
	nw.StartTraffic(TrafficConfig{})
	nw.Run(60 * Second)
	if nw.CoAPPDR().Rate() < 0.98 {
		t.Fatalf("PDR %.4f", nw.CoAPPDR().Rate())
	}
}

// TestConnsHandleOrder pins Controller.Conns to handle order on a node
// built through the facade (no caller-supplied arena): a hub with six
// inbound links must list them identically, sorted by handle, on every call.
func TestConnsHandleOrder(t *testing.T) {
	w := New(3)
	hub := w.NewNode(NodeConfig{Name: "hub", MAC: 0xB0})
	hub.AcceptInbound(6)
	for i := 0; i < 6; i++ {
		peer := w.NewNode(NodeConfig{Name: fmt.Sprintf("leaf-%d", i), MAC: uint64(0xC0 + i)})
		peer.ConnectTo(hub)
	}
	w.Run(30 * Second)
	first := hub.Ctrl.Conns()
	if len(first) != 6 {
		t.Fatalf("hub has %d connections, want 6", len(first))
	}
	for i := 1; i < len(first); i++ {
		if first[i-1].Handle() >= first[i].Handle() {
			t.Fatalf("Conns not in handle order: handle %d before %d",
				first[i-1].Handle(), first[i].Handle())
		}
	}
	for call := 0; call < 200; call++ {
		for i, c := range hub.Ctrl.Conns() {
			if c != first[i] {
				t.Fatalf("call %d: Conns()[%d] has handle %d, first call had %d",
					call, i, c.Handle(), first[i].Handle())
			}
		}
	}
}
