package core

import "fmt"

// This file is the packet slab pool: the allocator behind the simulator's
// zero-allocation packet lifecycle. Packets live in fixed-size slabs of
// Packet records ([][]Packet keeps record addresses stable across growth),
// are handed out through a LIFO free list of slot indexes, and return to
// the pool at the exact sinks where a packet's life ends — delivery to a
// host handler, or any drop site (the drop-reason taxonomy is unchanged;
// freeing happens after the reason is recorded). The discipline mirrors
// NDN-DPDK's mbuf pools: allocation is a free-list pop plus a struct copy,
// free is a push, and steady-state simulation performs no heap allocation
// per packet.
//
// Use-after-free and double-free detection: every slot carries a
// generation counter (odd = live, even = free) that is compared against
// the generation captured in the packet record. Checks compile to nothing
// in normal builds and panic under `-tags simdebug` (pooldebug_on.go).
//
// The pool is single-goroutine, like the engine it serves: each Net owns
// one pool, and sweep jobs running in parallel each carry their own.

// Slab geometry: 1024 records per slab (~a quarter MB) keeps growth rare
// without holding memory hostage on small topologies.
const (
	poolSlabShift = 10
	PoolSlabSize  = 1 << poolSlabShift
)

// PacketPool is a slab allocator for Packet records with free-list
// recycling. The zero value is NOT ready to use pooled; a nil *PacketPool
// is a valid allocator that falls back to the heap (every NewPacket call
// site works unpooled).
type PacketPool struct {
	slabs [][]Packet // fixed-size slabs; record addresses never move
	gen   []uint32   // per-slot generation: odd = live, even = free
	freeL []int32    // recycled slots, LIFO (hot slots stay cache-warm)
	next  int32      // slots materialized so far

	outstanding int
	highWater   int // most packets live at once over the pool's lifetime
	gets, puts  uint64
	grows       uint64
}

// NewPacketPool returns an empty pool; slabs materialize on demand.
func NewPacketPool() *PacketPool { return &PacketPool{} }

// PoolStats is a point-in-time snapshot of pool behaviour (JSON tags for
// the /snapshot endpoint).
type PoolStats struct {
	// Gets and Puts count allocations and frees over the pool's lifetime.
	Gets uint64 `json:"gets"`
	Puts uint64 `json:"puts"`
	// Slabs is the number of slabs materialized; Grows counts slab
	// materializations (equal to Slabs unless a future pool shrinks).
	Slabs int    `json:"slabs"`
	Grows uint64 `json:"grows"`
	// Outstanding is the number of live (allocated, not yet freed) packets;
	// HighWater is the most ever live at once — the run's true working set,
	// which sizes how much slab memory a topology actually needs.
	Outstanding int `json:"outstanding"`
	HighWater   int `json:"high_water"`
	// FreeLen is the current free-list depth (recycled slots awaiting reuse).
	FreeLen int `json:"free_len"`
}

// Stats returns the pool's counters (nil-safe: a nil pool reports zeros).
func (pl *PacketPool) Stats() PoolStats {
	if pl == nil {
		return PoolStats{}
	}
	return PoolStats{
		Gets:        pl.gets,
		Puts:        pl.puts,
		Slabs:       len(pl.slabs),
		Grows:       pl.grows,
		Outstanding: pl.outstanding,
		HighWater:   pl.highWater,
		FreeLen:     len(pl.freeL),
	}
}

// Outstanding returns the number of live packets — allocations minus
// frees. A drained simulation ends at zero: every packet was delivered or
// dropped, and its sink returned it. Nil-safe.
func (pl *PacketPool) Outstanding() int {
	if pl == nil {
		return 0
	}
	return pl.outstanding
}

// NewPacket is the one constructor for packets. It copies tmpl into a
// pooled record (or onto the heap when pl is nil — device-level tests and
// experiment injectors run unpooled) and returns it with fresh pool
// identity. The template's own pool identity, if any, is not inherited:
// cloning a pooled packet (push-back relays) yields an independent record,
// with the hot scalars (arrival slice, flow hash) carried over.
func (pl *PacketPool) NewPacket(tmpl Packet) *Packet {
	if pl == nil {
		p := new(Packet)
		*p = tmpl
		p.pool, p.idx, p.gen = nil, 0, 0
		return p
	}
	var idx int32
	if k := len(pl.freeL); k > 0 {
		idx = pl.freeL[k-1]
		pl.freeL = pl.freeL[:k-1]
	} else {
		if int(pl.next) == len(pl.slabs)*PoolSlabSize {
			pl.slabs = append(pl.slabs, make([]Packet, PoolSlabSize))
			pl.gen = append(pl.gen, make([]uint32, PoolSlabSize)...)
			pl.grows++
		}
		idx = pl.next
		pl.next++
	}
	g := pl.gen[idx] + 1 // even -> odd: slot is live
	pl.gen[idx] = g
	p := &pl.slabs[idx>>poolSlabShift][idx&(PoolSlabSize-1)]
	*p = tmpl
	p.pool, p.idx, p.gen = pl, idx, g
	pl.outstanding++
	if pl.outstanding > pl.highWater {
		pl.highWater = pl.outstanding
	}
	pl.gets++
	return p
}

// AllocPacket builds an unpooled (heap) packet through the same
// constructor path — for experiment injectors and tests that have no pool
// at hand. Frees of heap packets are no-ops.
func AllocPacket(tmpl Packet) *Packet { return (*PacketPool)(nil).NewPacket(tmpl) }

// Free returns the packet to its pool. It is the sink half of the packet
// lifecycle: host delivery calls it after the handler returns, every drop
// site calls it after the drop is recorded. Freeing an unpooled packet is
// a no-op, so sinks need no pool plumbing. A double free panics under
// `-tags simdebug`; normal builds ignore it (the slot's generation no
// longer matches, so the stale record cannot corrupt a reused slot).
func (p *Packet) Free() {
	pl := p.pool
	if pl == nil {
		return
	}
	idx := p.idx
	if pl.gen[idx]&1 == 0 || pl.gen[idx] != p.gen {
		if poolDebug {
			panic(fmt.Sprintf("core: double free of packet slot %d (record gen %d, slot gen %d)",
				idx, p.gen, pl.gen[idx]))
		}
		return
	}
	pl.gen[idx]++ // odd -> even: slot is free
	// Drop reference-typed fields so a parked free slot pins no trace
	// records or source routes until its next reuse.
	p.Trace = nil
	p.SR = nil
	pl.freeL = append(pl.freeL, idx)
	pl.outstanding--
	pl.puts++
}

// assertLive panics if the packet's slot has been freed or reallocated
// since this record's generation was captured. Called from accessors only
// under `-tags simdebug` (the poolDebug const gates every call site, so
// normal builds carry no check).
func (p *Packet) assertLive() {
	if pl := p.pool; pl != nil && pl.gen[p.idx] != p.gen {
		panic(fmt.Sprintf("core: use of freed packet slot %d (record gen %d, slot gen %d)",
			p.idx, p.gen, pl.gen[p.idx]))
	}
}
