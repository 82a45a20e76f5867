package exp

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/testbed"
)

// TestParallelBuildRepeatable pins the parallel per-site fill itself: the
// same many-site topology built twice with 8 claim-racing workers must
// produce identical node populations and identical exports. Run under
// -race this is also the data-race check for the two-pass builder.
func TestParallelBuildRepeatable(t *testing.T) {
	topo := testbed.RandomGeometric(testbed.GeoConfig{
		Seed: 11, N: 120, Width: 400, Height: 400, Range: 20})
	if len(topo.Sites()) < 4 {
		t.Fatalf("fixture topology has %d sites, need many for worker racing", len(topo.Sites()))
	}
	a := goldenExport(t, topo, 11, 8)
	b := goldenExport(t, topo, 11, 8)
	if a == "" {
		t.Fatal("empty export")
	}
	if a != b {
		n, g, w := firstDiff(a, b)
		t.Fatalf("same parallel build diverges run-to-run at line %d:\n  %s\n  %s", n, g, w)
	}
}

// TestSparseRoutesRequireStaticRouting pins the config-corner fix: sparse
// provisioning under dynamic routing used to build a half-configured
// network (pre-installed sink-tree routes that RPL immediately shadowed);
// now the combination is rejected loudly at build time.
func TestSparseRoutesRequireStaticRouting(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("BuildNetwork accepted SparseRoutes with dynamic routing")
		}
		msg := fmt.Sprint(r)
		if !strings.Contains(msg, "SparseRoutes requires RoutingStatic") {
			t.Fatalf("panic message does not explain the rejection: %q", msg)
		}
	}()
	BuildNetwork(NetworkConfig{
		Seed:         1,
		Topology:     testbed.Tree(),
		Routing:      RoutingDynamic,
		SparseRoutes: true,
	})
}

// TestDenseIndexLookup cross-checks the dense id-indexed node table against
// an independently built reference map on generated topologies, including
// randomized out-of-range and gap probes: Node(id) and nodeByMAC(mac) must
// behave exactly like the map lookups they replaced.
func TestDenseIndexLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		n := 20 + rng.Intn(60)
		topo := testbed.RandomGeometric(testbed.GeoConfig{
			Seed: int64(100 + trial), N: n,
			Width: 150, Height: 150, Range: 18})
		nw := BuildNetwork(NetworkConfig{
			Seed:     int64(trial),
			Topology: topo,
			Policy:   statconn.Static{Interval: 75 * sim.Millisecond},
			Shards:   1,
		})
		want := make(map[int]uint64, n)
		for _, id := range topo.Nodes() {
			want[id] = uint64(0x5A0000000000) + uint64(id)
		}
		if nw.NodeCount() != len(want) {
			t.Fatalf("trial %d: NodeCount %d, want %d", trial, nw.NodeCount(), len(want))
		}
		for id, mac := range want {
			node := nw.Node(id)
			if node == nil {
				t.Fatalf("trial %d: Node(%d) is nil", trial, id)
			}
			if got := uint64(node.DevAddr()); got != mac {
				t.Fatalf("trial %d: Node(%d) has MAC %012x, want %012x", trial, id, got, mac)
			}
			if nw.nodeByMAC(mac) != node {
				t.Fatalf("trial %d: nodeByMAC(%012x) does not round-trip", trial, mac)
			}
		}
		// Randomized negative probes: ids outside the dense range and MACs
		// off the 0x5A prefix must come back nil, exactly like map misses.
		for p := 0; p < 200; p++ {
			id := rng.Intn(4*n) - n
			if _, ok := want[id]; ok {
				continue
			}
			if got := nw.Node(id); got != nil {
				t.Fatalf("trial %d: Node(%d) = %v, want nil", trial, id, got)
			}
			mac := uint64(0x5A0000000000) + uint64(int64(id))
			if got := nw.nodeByMAC(mac); got != nil {
				t.Fatalf("trial %d: nodeByMAC(%012x) = %v, want nil", trial, mac, got)
			}
		}
	}
}
