package core

import "testing"

func TestPacketPoolRecycles(t *testing.T) {
	pl := NewPacketPool()
	p := pl.NewPacket(Packet{Size: 1500, Flow: FlowKey{SrcHost: 1, DstHost: 2}})
	if got := pl.Outstanding(); got != 1 {
		t.Fatalf("Outstanding after alloc = %d, want 1", got)
	}
	idx := p.idx
	p.Free()
	if got := pl.Outstanding(); got != 0 {
		t.Fatalf("Outstanding after free = %d, want 0", got)
	}
	q := pl.NewPacket(Packet{Size: 64})
	if q.idx != idx {
		t.Errorf("LIFO free list did not recycle slot %d (got %d)", idx, q.idx)
	}
	if q.Size != 64 || q.Flow.SrcHost != 0 {
		t.Errorf("recycled record retained stale fields: %+v", q)
	}
	st := pl.Stats()
	if st.Gets != 2 || st.Puts != 1 || st.Slabs != 1 {
		t.Errorf("Stats = %+v, want Gets 2 Puts 1 Slabs 1", st)
	}
}

func TestPacketPoolDoubleFreeIgnoredInNormalBuilds(t *testing.T) {
	if poolDebug {
		t.Skip("simdebug builds panic on double free (covered by pooldebug_test.go)")
	}
	pl := NewPacketPool()
	p := pl.NewPacket(Packet{})
	p.Free()
	p.Free() // silently ignored: slot generation no longer matches
	if got := pl.Outstanding(); got != 0 {
		t.Fatalf("Outstanding after double free = %d, want 0", got)
	}
	// A *copy* of the record (not a pointer into the slab) must not free a
	// reused slot out from under its new owner: its captured generation is
	// stale. (A stale pointer into the slab aliases the new owner's record
	// and is indistinguishable from it — that is the pointer discipline the
	// sinks enforce, not something the pool can detect.)
	q := pl.NewPacket(Packet{})
	stale := *q
	q.Free()
	r := pl.NewPacket(Packet{})
	stale.Free()
	if got := pl.Outstanding(); got != 1 {
		t.Fatalf("stale record copy released a reused slot: Outstanding = %d, want 1", got)
	}
	r.Free()
}

func TestPacketPoolSoACarryOver(t *testing.T) {
	pl := NewPacketPool()
	p := pl.NewPacket(Packet{Flow: FlowKey{SrcHost: 3, DstHost: 4, SrcPort: 5, DstPort: 6}})
	p.SetArrSlice(7)
	h := p.FlowHash()
	if h == 0 {
		t.Fatal("FlowHash returned 0 for a non-zero flow")
	}
	// Cloning through the constructor (push-back relays do this) must carry
	// the hot scalars whether the clone lands pooled or on the heap.
	clone := pl.NewPacket(*p)
	if clone.ArrSlice() != 7 || clone.FlowHash() != h {
		t.Errorf("pooled clone lost the hot scalars: arr=%d hash=%d", clone.ArrSlice(), clone.FlowHash())
	}
	heap := AllocPacket(*p)
	if heap.ArrSlice() != 7 || heap.FlowHash() != h {
		t.Errorf("heap clone lost the hot scalars: arr=%d hash=%d", heap.ArrSlice(), heap.FlowHash())
	}
	heap.Free() // no-op for heap packets
	clone.Free()
	p.Free()
	if got := pl.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d, want 0", got)
	}
}

func TestNilPoolFallsBackToHeap(t *testing.T) {
	var pl *PacketPool
	p := pl.NewPacket(Packet{Size: 100})
	if p == nil || p.Size != 100 {
		t.Fatalf("nil-pool NewPacket = %+v", p)
	}
	p.SetArrSlice(3)
	if p.ArrSlice() != 3 {
		t.Errorf("inline ArrSlice store broken: %d", p.ArrSlice())
	}
	p.Free() // no-op
	if pl.Outstanding() != 0 {
		t.Errorf("nil pool Outstanding = %d", pl.Outstanding())
	}
}

func TestPacketPoolSlabGrowth(t *testing.T) {
	pl := NewPacketPool()
	live := make([]*Packet, 0, PoolSlabSize+10)
	for i := 0; i < PoolSlabSize+10; i++ {
		live = append(live, pl.NewPacket(Packet{Size: int32(i)}))
	}
	if st := pl.Stats(); st.Slabs != 2 {
		t.Fatalf("Slabs = %d after %d allocations, want 2", st.Slabs, len(live))
	}
	// Slab growth must not move existing records (devices hold *Packet
	// across event boundaries).
	for i, p := range live {
		if p.Size != int32(i) {
			t.Fatalf("record %d moved or was corrupted by slab growth", i)
		}
	}
	for _, p := range live {
		p.Free()
	}
	if got := pl.Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d, want 0", got)
	}
}

// TestPacketPoolZeroAllocSteadyState pins the tentpole property at the
// allocator level: once the free list is primed, an allocate/free cycle
// performs zero heap allocations.
func TestPacketPoolZeroAllocSteadyState(t *testing.T) {
	pl := NewPacketPool()
	pl.NewPacket(Packet{}).Free() // prime the slab
	avg := testing.AllocsPerRun(1000, func() {
		p := pl.NewPacket(Packet{Size: 1500})
		p.SetArrSlice(1)
		p.Free()
	})
	if avg != 0 {
		t.Fatalf("steady-state alloc/free cycle allocates %.2f objects/op, want 0", avg)
	}
}

func TestPacketPoolHighWaterAndFreeLen(t *testing.T) {
	pl := NewPacketPool()
	var live []*Packet
	for i := 0; i < 3; i++ {
		live = append(live, pl.NewPacket(Packet{Size: 100}))
	}
	st := pl.Stats()
	if st.Outstanding != 3 || st.HighWater != 3 || st.FreeLen != 0 {
		t.Fatalf("after 3 allocs: %+v", st)
	}
	live[0].Free()
	live[1].Free()
	// The high-water mark is sticky: freeing does not lower it, and a
	// smaller working set does not raise it.
	pl.NewPacket(Packet{Size: 200})
	st = pl.Stats()
	if st.Outstanding != 2 || st.HighWater != 3 {
		t.Fatalf("high water must persist: %+v", st)
	}
	if st.FreeLen != 1 {
		t.Fatalf("free list depth = %d, want 1 (one of two freed slots recycled)", st.FreeLen)
	}
	// A new peak pushes it up.
	for i := 0; i < 4; i++ {
		pl.NewPacket(Packet{Size: 300})
	}
	if st = pl.Stats(); st.HighWater != 6 || st.Outstanding != 6 {
		t.Fatalf("new peak: %+v", st)
	}
	// Nil pools report zeros.
	if st = (*PacketPool)(nil).Stats(); st != (PoolStats{}) {
		t.Fatalf("nil pool stats = %+v", st)
	}
}
