package exp

import (
	"strings"
	"testing"

	"blemesh/internal/fault"
	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/testbed"
)

// engineExport drives one short traced workload on the given event-queue
// engine and returns the full observable output: the flight-recorder NDJSON
// followed by the unified-metrics NDJSON. Byte equality of this string is
// the strongest equivalence the platform can express — every connection
// event, packet hop, retransmission, and counter in the run.
func engineExport(t *testing.T, engine sim.Engine, seed int64, churn bool) string {
	t.Helper()
	nw := BuildNetwork(NetworkConfig{
		Seed:          seed,
		Engine:        engine,
		Topology:      testbed.Tree(),
		Policy:        statconn.Static{Interval: 75 * sim.Millisecond},
		JamChannel22:  true,
		Trace:         true,
		TraceCapacity: 1 << 18,
	})
	if !nw.WaitTopology(60 * sim.Second) {
		t.Fatalf("engine %v seed %d: topology did not form within 60s", engine, seed)
	}
	nw.Run(5 * sim.Second)
	nw.StartTraffic(TrafficConfig{Interval: sim.Second, Jitter: 500 * sim.Millisecond})
	if churn {
		// Reboot a depth-1 router mid-traffic: supervision timeouts,
		// reconnection scanning, and fragment-in-flight loss all cross the
		// engine's timer paths at once.
		nw.Run(10 * sim.Second)
		plan := &fault.Plan{Events: []fault.Event{
			{At: 0, Kind: fault.Reboot, Node: 2, Dwell: churnDwell},
		}}
		if _, err := fault.Attach(nw.Sim, nw, plan); err != nil {
			t.Fatal(err)
		}
		nw.Run(30 * sim.Second)
	} else {
		nw.Run(20 * sim.Second)
	}
	var b strings.Builder
	if err := nw.Trace.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	if err := nw.Registry.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// firstDiff locates the first differing line of two NDJSON exports.
func firstDiff(a, b string) (line int, got, want string) {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return i + 1, al[i], bl[i]
		}
	}
	return len(al), "<end>", "<end>"
}

// TestEngineEquivalence runs 16 seeds of the dense-tree and churn workloads
// on both event-queue engines and requires byte-identical trace and metrics
// exports. This is the lockdown for the timer-wheel hot path: the wheel may
// be faster than the reference heap, but it must never reorder events.
func TestEngineEquivalence(t *testing.T) {
	for _, wl := range []struct {
		name  string
		churn bool
	}{{"dense-tree", false}, {"churn", true}} {
		t.Run(wl.name, func(t *testing.T) {
			for seed := int64(1); seed <= 16; seed++ {
				heap := engineExport(t, sim.EngineHeap, seed, wl.churn)
				wheel := engineExport(t, sim.EngineWheel, seed, wl.churn)
				if heap == "" {
					t.Fatalf("seed %d: empty export", seed)
				}
				if wheel != heap {
					n, g, w := firstDiff(wheel, heap)
					t.Fatalf("seed %d: engines diverge at line %d:\n  wheel: %s\n  heap:  %s",
						seed, n, g, w)
				}
			}
		})
	}
}

// shardedExport drives the same workload as engineExport but through the
// conservative sharded scheduler with the given worker-lane count.
func shardedExport(t *testing.T, seed int64, churn bool, shards int) string {
	t.Helper()
	nw := BuildNetwork(NetworkConfig{
		Seed:          seed,
		Engine:        sim.EngineWheel,
		Shards:        shards,
		Topology:      testbed.Tree(),
		Policy:        statconn.Static{Interval: 75 * sim.Millisecond},
		JamChannel22:  true,
		Trace:         true,
		TraceCapacity: 1 << 18,
	})
	if !nw.WaitTopology(60 * sim.Second) {
		t.Fatalf("shards %d seed %d: topology did not form within 60s", shards, seed)
	}
	nw.Run(5 * sim.Second)
	nw.StartTraffic(TrafficConfig{Interval: sim.Second, Jitter: 500 * sim.Millisecond})
	if churn {
		nw.Run(10 * sim.Second)
		plan := &fault.Plan{Events: []fault.Event{
			{At: 0, Kind: fault.Reboot, Node: 2, Dwell: churnDwell},
		}}
		if _, err := fault.Attach(nw.Sim, nw, plan); err != nil {
			t.Fatal(err)
		}
		nw.Run(30 * sim.Second)
	} else {
		nw.Run(20 * sim.Second)
	}
	var b strings.Builder
	if err := nw.Trace.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	if err := nw.Registry.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestShardEquivalence is the determinism contract for the sharded scheduler:
// 16 seeds of the dense-tree and churn workloads, for every shard count in
// {1, 2, 4, 8}, must export byte-identical trace and metrics NDJSON to the
// serial timer-wheel engine. The shard count is a worker-lane knob, never an
// output knob.
func TestShardEquivalence(t *testing.T) {
	for _, wl := range []struct {
		name  string
		churn bool
	}{{"dense-tree", false}, {"churn", true}} {
		t.Run(wl.name, func(t *testing.T) {
			for seed := int64(1); seed <= 16; seed++ {
				serial := engineExport(t, sim.EngineWheel, seed, wl.churn)
				if serial == "" {
					t.Fatalf("seed %d: empty export", seed)
				}
				for _, shards := range []int{1, 2, 4, 8} {
					got := shardedExport(t, seed, wl.churn, shards)
					if got != serial {
						n, g, w := firstDiff(got, serial)
						t.Fatalf("seed %d shards %d: diverges from serial at line %d:\n  sharded: %s\n  serial:  %s",
							seed, shards, n, g, w)
					}
				}
			}
		})
	}
}

// forestExport drives a four-site forest (four RF-isolated tree testbeds)
// through the scheduler and returns the merged observable output. shards==0
// selects the serial engine with phy domain partitioning.
func forestExport(t *testing.T, seed int64, churn bool, shards int) string {
	t.Helper()
	nw := BuildNetwork(NetworkConfig{
		Seed:          seed,
		Engine:        sim.EngineWheel,
		Shards:        shards,
		Topology:      testbed.Forest(4),
		Policy:        statconn.Static{Interval: 75 * sim.Millisecond},
		JamChannel22:  true,
		Trace:         true,
		TraceCapacity: 1 << 18,
	})
	if !nw.WaitTopology(60 * sim.Second) {
		t.Fatalf("forest shards %d seed %d: topology did not form within 60s", shards, seed)
	}
	nw.Run(5 * sim.Second)
	nw.StartTraffic(TrafficConfig{Interval: sim.Second, Jitter: 500 * sim.Millisecond})
	if churn {
		// Reboot depth-1 routers in two different sites: fault events run on
		// the global lane and must splice deterministically into per-site
		// windows.
		nw.Run(10 * sim.Second)
		plan := &fault.Plan{Events: []fault.Event{
			{At: 0, Kind: fault.Reboot, Node: 2, Dwell: churnDwell},
			{At: 2 * sim.Second, Kind: fault.Reboot, Node: 102, Dwell: churnDwell},
		}}
		if _, err := fault.Attach(nw.Sim, nw, plan); err != nil {
			t.Fatal(err)
		}
		nw.Run(30 * sim.Second)
	} else {
		nw.Run(20 * sim.Second)
	}
	var b strings.Builder
	if err := nw.Trace.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	if err := nw.Registry.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestForestShardWorkerInvariance pins the multi-site case: a 4-site forest
// driven with 1, 2, 4, and 8 worker lanes — with and without cross-site
// churn — must produce byte-identical exports. This is where windows really
// run concurrently, so it is the racing half of the determinism contract.
func TestForestShardWorkerInvariance(t *testing.T) {
	for _, wl := range []struct {
		name  string
		churn bool
	}{{"dense-forest", false}, {"forest-churn", true}} {
		t.Run(wl.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				ref := forestExport(t, seed, wl.churn, 1)
				if ref == "" {
					t.Fatalf("seed %d: empty export", seed)
				}
				for _, shards := range []int{2, 4, 8} {
					got := forestExport(t, seed, wl.churn, shards)
					if got != ref {
						n, g, w := firstDiff(got, ref)
						t.Fatalf("seed %d shards %d: diverges from shards=1 at line %d:\n  got:  %s\n  want: %s",
							seed, shards, n, g, w)
					}
				}
			}
		})
	}
}

// TestForestShardedIsRepeatable pins the sharded multi-site export itself as
// deterministic run-to-run, so worker-invariance passes cannot be
// different-but-luckily-equal runs.
func TestForestShardedIsRepeatable(t *testing.T) {
	a := forestExport(t, 1, false, 4)
	b := forestExport(t, 1, false, 4)
	if a != b {
		n, g, w := firstDiff(a, b)
		t.Fatalf("same config diverges run-to-run at line %d:\n  %s\n  %s", n, g, w)
	}
}

// TestEngineEquivalenceIsRepeatable pins the export itself as deterministic:
// the same engine twice must also be byte-identical, so a pass of
// TestEngineEquivalence cannot be two different-but-luckily-equal runs.
func TestEngineEquivalenceIsRepeatable(t *testing.T) {
	a := engineExport(t, sim.EngineWheel, 1, false)
	b := engineExport(t, sim.EngineWheel, 1, false)
	if a != b {
		n, g, w := firstDiff(a, b)
		t.Fatalf("same engine, same seed diverges at line %d:\n  %s\n  %s", n, g, w)
	}
}
