package coap

import (
	"blemesh/internal/ip6"
	"blemesh/internal/sim"
)

// DedupWindow is how long a served request's (source endpoint, MID) pair
// suppresses a replay. It is shorter than RFC 7252's EXCHANGE_LIFETIME
// (247 s); it stays at 60 s, the window every recorded result was produced
// with, so that output does not move.
const DedupWindow = 60 * sim.Second

// source is a request's source endpoint. RFC 7252 §4.5 scopes message IDs
// to the (address, port) pair.
type source struct {
	addr ip6.Addr
	port uint16
}

// dedupCache remembers the (source endpoint, MID) of every request served
// in the last DedupWindow. Sim time never decreases, so arrival order is
// expiry order: keys sit in a FIFO ring and expire from its front, which
// makes each request O(1) amortised. A key is re-inserted only after it has
// expired, so the ring never holds a key twice.
type dedupCache struct {
	sources map[source]uint64   // source endpoint → intern index
	at      map[uint64]sim.Time // live key → arrival time
	ring    []uint64            // live keys in arrival order from head; len is a power of two
	head, n int
}

func newDedupCache() *dedupCache {
	return &dedupCache{
		sources: make(map[source]uint64),
		at:      make(map[uint64]sim.Time),
		ring:    make([]uint64, 16),
	}
}

// key returns the cache key of message ID mid from src: the source's
// intern index above the 16-bit MID, so no number of sources can alias.
func (c *dedupCache) key(src source, mid uint16) uint64 {
	idx, ok := c.sources[src]
	if !ok {
		idx = uint64(len(c.sources))
		c.sources[src] = idx
	}
	return idx<<16 | uint64(mid)
}

// expire drops every key that arrived at or before cutoff.
func (c *dedupCache) expire(cutoff sim.Time) {
	for c.n > 0 {
		k := c.ring[c.head]
		if c.at[k] > cutoff {
			return
		}
		delete(c.at, k)
		c.head = (c.head + 1) & (len(c.ring) - 1)
		c.n--
	}
}

// has reports whether key is live.
func (c *dedupCache) has(key uint64) bool {
	_, ok := c.at[key]
	return ok
}

// add records key as arriving at now, which must not precede any earlier
// arrival.
func (c *dedupCache) add(key uint64, now sim.Time) {
	if c.n == len(c.ring) {
		grown := make([]uint64, 2*len(c.ring))
		k := copy(grown, c.ring[c.head:])
		copy(grown[k:], c.ring[:c.head])
		c.ring, c.head = grown, 0
	}
	c.ring[(c.head+c.n)&(len(c.ring)-1)] = key
	c.n++
	c.at[key] = now
}
