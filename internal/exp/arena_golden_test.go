package exp

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"blemesh/internal/sim"
	"blemesh/internal/statconn"
	"blemesh/internal/testbed"
)

var updateGolden = flag.Bool("update", false,
	"rewrite "+goldenFile+" from the current build instead of checking it")

// goldenFile holds one SHA-256 digest of the trace + metrics NDJSON per
// (topology kind, seed, schedule): the "serial" rows are checked by
// TestArenaSerialAllocEquivalence, the "sharded" rows by
// TestArenaAllocEquivalence.
const goldenFile = "testdata/arena_golden.sha256"

// goldenKinds and goldenSeeds span the checked (and -update recorded)
// exports: seeds 1..goldenSeeds of every topology kind.
var goldenKinds = []string{"geo", "city", "tree"}

const goldenSeeds = 16

// goldenExport drives one traced workload on the arena-backed build and
// returns the full trace + metrics NDJSON. shards==0 is the serial engine
// with phy domain partitioning; shards>=1 the conservative sharded one.
func goldenExport(t *testing.T, topo testbed.Topology, seed int64, shards int) string {
	t.Helper()
	nw := BuildNetwork(NetworkConfig{
		Seed:          seed,
		Engine:        sim.EngineWheel,
		Shards:        shards,
		Topology:      topo,
		Policy:        statconn.Static{Interval: 75 * sim.Millisecond},
		JamChannel22:  true,
		Trace:         true,
		TraceCapacity: 1 << 18,
	})
	// Formation failure on a hard seed is itself fine: the digest pins the
	// failure exactly as it pins a success.
	nw.WaitTopology(60 * sim.Second)
	nw.Run(5 * sim.Second)
	nw.StartTraffic(TrafficConfig{Interval: sim.Second, Jitter: 500 * sim.Millisecond})
	nw.Run(20 * sim.Second)
	var b strings.Builder
	if err := nw.Trace.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	if err := nw.Registry.WriteNDJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func goldenKey(kind string, seed int64, sched string) string {
	return fmt.Sprintf("%s %d %s", kind, seed, sched)
}

// readGolden parses goldenFile: one "<kind> <seed> <schedule> <sha256>"
// line per recorded export. A missing file is an empty map when
// allowMissing (the first -update), a test failure otherwise.
func readGolden(t *testing.T, allowMissing bool) map[string]string {
	t.Helper()
	want := make(map[string]string)
	f, err := os.Open(goldenFile)
	if err != nil {
		if allowMissing && os.IsNotExist(err) {
			return want
		}
		t.Fatalf("%v (record it with: go test ./internal/exp -run 'TestArena(Serial)?AllocEquivalence' -update)", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		want[line[:i]] = line[i+1:]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// writeGolden merges rec into goldenFile, keeping the rows of the other
// schedule, and writes every row in (kind, seed, schedule) order.
func writeGolden(t *testing.T, rec map[string]string) {
	t.Helper()
	all := readGolden(t, true)
	for k, v := range rec {
		all[k] = v
	}
	var b strings.Builder
	b.WriteString("# SHA-256 of the trace+metrics NDJSON per <kind> <seed> <schedule>;" +
		" see TestArenaAllocEquivalence and TestArenaSerialAllocEquivalence.\n")
	for _, kind := range goldenKinds {
		for seed := int64(1); seed <= goldenSeeds; seed++ {
			for _, sched := range []string{"serial", "sharded"} {
				key := goldenKey(kind, seed, sched)
				if d, ok := all[key]; ok {
					b.WriteString(key + " " + d + "\n")
				}
			}
		}
	}
	if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// checkGolden runs export for seeds 1..goldenSeeds (4 under -short) of
// every topology kind, one subtest per kind, and compares the digest of
// each export with the recorded "<kind> <seed> <sched>" row — or, under
// -update, records it instead.
func checkGolden(t *testing.T, sched string, export func(t *testing.T, topo testbed.Topology, seed int64) string) {
	seeds := int64(goldenSeeds)
	if testing.Short() && !*updateGolden {
		seeds = 4
	}
	want := readGolden(t, *updateGolden)
	rec := make(map[string]string)
	for _, kind := range goldenKinds {
		t.Run(kind, func(t *testing.T) {
			for seed := int64(1); seed <= seeds; seed++ {
				out := export(t, spatialTopology(kind, seed), seed)
				if out == "" {
					t.Fatalf("%s seed %d %s: empty export", kind, seed, sched)
				}
				key, got := goldenKey(kind, seed, sched), digest(out)
				rec[key] = got
				if *updateGolden {
					continue
				}
				w, ok := want[key]
				if !ok {
					t.Fatalf("%s: no recorded digest in %s", key, goldenFile)
				}
				if got != w {
					t.Fatalf("%s: export digest %s, recorded %s", key, got, w)
				}
			}
		})
	}
	if *updateGolden && !t.Failed() {
		writeGolden(t, rec)
	}
}

// TestArenaAllocEquivalence is the determinism lockdown for the sharded
// arena-backed struct-of-arrays build: generated geo and city topologies
// (and the fixed-tree control) at 1 and 4 worker lanes must export trace
// and metrics NDJSON whose SHA-256 matches the recorded "sharded" digest,
// since worker count is never an output knob. The digests were recorded
// while the map-backed per-node allocation path still existed and matched
// it byte for byte, so this check holds the compact tables to that output.
// Regenerate only with -update, and only for a change that is meant to
// alter simulated output.
func TestArenaAllocEquivalence(t *testing.T) {
	checkGolden(t, "sharded", func(t *testing.T, topo testbed.Topology, seed int64) string {
		one := goldenExport(t, topo, seed, 1)
		four := goldenExport(t, topo, seed, 4)
		if one != four {
			n, g, w := firstDiff(four, one)
			t.Fatalf("seed %d: 4 lanes diverge from 1 lane at line %d:\n  4 lanes: %s\n  1 lane:  %s",
				seed, n, g, w)
		}
		return one
	})
}

// TestArenaSerialAllocEquivalence covers the serial build (shards==0),
// whose arena path is structurally different from the sharded one: a
// single network-wide arena carving in global id order against one shared
// RNG. Its exports must match the recorded "serial" digests, recorded the same
// way as TestArenaAllocEquivalence's.
func TestArenaSerialAllocEquivalence(t *testing.T) {
	checkGolden(t, "serial", func(t *testing.T, topo testbed.Topology, seed int64) string {
		return goldenExport(t, topo, seed, 0)
	})
}
