package core

import (
	"blemesh/internal/arena"
	"blemesh/internal/ble"
	"blemesh/internal/coap"
	"blemesh/internal/gatt"
	"blemesh/internal/ip6"
	"blemesh/internal/sim"
	"blemesh/internal/statconn"
)

// Arena is preallocated struct storage for node construction: one
// contiguous slab per subsystem type, sized for a known node count and
// carved one element per node, plus the GATT database its nodes share —
// the struct-of-arrays layout that makes city-scale populations affordable.
//
// An arena is single-site: node construction carves slabs sequentially, so
// parallel builders use one arena per topology site.
type Arena struct {
	nodes  *arena.Slab[Node]
	clocks *arena.Slab[sim.Clock]
	ctrls  *arena.Slab[ble.Controller]
	mgrs   *arena.Slab[statconn.Manager]
	netifs *arena.Slab[NetIf]
	stacks *arena.Slab[ip6.Stack]
	coaps  *arena.Slab[coap.Endpoint]
	gattDB *gatt.Server
}

// NewArena preallocates storage for n nodes. gattDB is the immutable
// GATT/IPSS database shared by every node built from this arena; pass nil
// to create one (sites of the same network should share a single instance).
func NewArena(n int, gattDB *gatt.Server) *Arena {
	if gattDB == nil {
		gattDB = gatt.NewServer(gatt.UUIDIPSS)
	}
	return &Arena{
		nodes:  arena.NewSlab[Node](n),
		clocks: arena.NewSlab[sim.Clock](n),
		ctrls:  arena.NewSlab[ble.Controller](n),
		mgrs:   arena.NewSlab[statconn.Manager](n),
		netifs: arena.NewSlab[NetIf](n),
		stacks: arena.NewSlab[ip6.Stack](n),
		coaps:  arena.NewSlab[coap.Endpoint](n),
		gattDB: gattDB,
	}
}

// Remaining returns how many more nodes the arena can supply.
func (a *Arena) Remaining() int { return a.nodes.Remaining() }

// NewArenas preallocates one arena per site, all sharing a single GATT/IPSS
// database — the layout a parallel per-site network builder wants: each
// site's goroutine carves its own arena sequentially while the immutable
// database is shared across the whole network. Per type, all sites split one
// network-wide backing array (arena.NewSlabs): generated city-scale fields
// have thousands of single-digit-node sites, and per-site slab allocations
// would pay malloc size-class rounding on every one of them.
func NewArenas(sizes []int) []*Arena {
	db := gatt.NewServer(gatt.UUIDIPSS)
	nodes := arena.NewSlabs[Node](sizes)
	clocks := arena.NewSlabs[sim.Clock](sizes)
	ctrls := arena.NewSlabs[ble.Controller](sizes)
	mgrs := arena.NewSlabs[statconn.Manager](sizes)
	netifs := arena.NewSlabs[NetIf](sizes)
	stacks := arena.NewSlabs[ip6.Stack](sizes)
	coaps := arena.NewSlabs[coap.Endpoint](sizes)
	out := make([]*Arena, len(sizes))
	for i := range sizes {
		out[i] = &Arena{
			nodes:  nodes[i],
			clocks: clocks[i],
			ctrls:  ctrls[i],
			mgrs:   mgrs[i],
			netifs: netifs[i],
			stacks: stacks[i],
			coaps:  coaps[i],
			gattDB: db,
		}
	}
	return out
}
