package controller

import (
	"strings"
	"testing"
	"time"

	"openoptics/internal/core"
	"openoptics/internal/routing"
	"openoptics/internal/topo"
)

func fig2Schedule(t *testing.T) *core.Schedule {
	t.Helper()
	s := &core.Schedule{NumSlices: 3, SliceDuration: 100 * time.Microsecond, Circuits: []core.Circuit{
		{A: 0, PortA: 0, B: 1, PortB: 0, Slice: 0},
		{A: 2, PortA: 0, B: 3, PortB: 0, Slice: 0},
		{A: 0, PortA: 0, B: 2, PortB: 0, Slice: 1},
		{A: 1, PortA: 0, B: 3, PortB: 0, Slice: 1},
		{A: 0, PortA: 0, B: 3, PortB: 0, Slice: 2},
		{A: 1, PortA: 0, B: 2, PortB: 0, Slice: 2},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCompilePerHopFig3b(t *testing.T) {
	sched := fig2Schedule(t)
	// Path ② from Fig. 2: N0 -> N1 at ts=0, N1 -> N3 at ts=1.
	p := core.Path{Src: 0, Dst: 3, TS: 0, Weight: 1, Hops: []core.Hop{
		{Node: 0, Egress: 0, DepSlice: 0},
		{Node: 1, Egress: 0, DepSlice: 1},
	}}
	cr, err := CompileRouting(core.NewConnIndex(sched), []core.Path{p}, CompileOptions{Lookup: core.LookupHop})
	if err != nil {
		t.Fatal(err)
	}
	if cr.Entries != 2 {
		t.Fatalf("entries = %d, want 2", cr.Entries)
	}
	// N0's entry: arrival 0, departure 0 (Fig. 3 b top).
	r, ok := cr.Tables[0].Lookup(0, 0, 3, 0, 0)
	if !ok || r.DepSlice != 0 || r.Egress != 0 {
		t.Fatalf("N0 lookup = %+v ok=%v", r, ok)
	}
	// N1's entry: arrival 0 (in-slice traversal), departure 1.
	r, ok = cr.Tables[1].Lookup(0, 0, 3, 0, 0)
	if !ok || r.DepSlice != 1 {
		t.Fatalf("N1 lookup = %+v ok=%v", r, ok)
	}
}

func TestCompileSourceRoutingFig3d(t *testing.T) {
	sched := fig2Schedule(t)
	p := core.Path{Src: 0, Dst: 3, TS: 0, Weight: 1, Hops: []core.Hop{
		{Node: 0, Egress: 0, DepSlice: 0},
		{Node: 1, Egress: 0, DepSlice: 1},
	}}
	cr, err := CompileRouting(core.NewConnIndex(sched), []core.Path{p}, CompileOptions{Lookup: core.LookupSource})
	if err != nil {
		t.Fatal(err)
	}
	if cr.Entries != 1 {
		t.Fatalf("entries = %d, want 1 (source routing)", cr.Entries)
	}
	if cr.Tables[1] != nil {
		t.Fatal("source routing must not install entries at intermediate nodes")
	}
	r, ok := cr.Tables[0].Lookup(0, 0, 3, 0, 0)
	if !ok || len(r.SourceRoute) != 2 {
		t.Fatalf("lookup = %+v ok=%v", r, ok)
	}
	if r.SourceRoute[1] != (core.SRHop{Egress: 0, DepSlice: 1}) {
		t.Fatalf("SR tail = %v", r.SourceRoute[1])
	}
}

func TestCompileRejectsInfeasiblePath(t *testing.T) {
	ix := core.NewConnIndex(fig2Schedule(t))
	// No circuit out of N0.p0 reaches N3 in slice 1 (N0-N2 is live then).
	bad := core.Path{Src: 0, Dst: 3, TS: 1, Weight: 1, Hops: []core.Hop{
		{Node: 0, Egress: 0, DepSlice: 1},
	}}
	_, err := CompileRouting(ix, []core.Path{bad}, CompileOptions{Lookup: core.LookupHop})
	if err == nil {
		t.Fatal("infeasible path accepted")
	}
	if !strings.Contains(err.Error(), "ends at") {
		t.Fatalf("unexpected error: %v", err)
	}
	// A hop out of a port with no circuit at all in that slice.
	bad2 := core.Path{Src: 0, Dst: 3, TS: 0, Weight: 1, Hops: []core.Hop{
		{Node: 0, Egress: 5, DepSlice: 0},
	}}
	if _, err := CompileRouting(ix, []core.Path{bad2}, CompileOptions{Lookup: core.LookupHop}); err == nil {
		t.Fatal("portless hop accepted")
	}
	// Hop chain inconsistency.
	bad3 := core.Path{Src: 0, Dst: 3, TS: 0, Weight: 1, Hops: []core.Hop{
		{Node: 0, Egress: 0, DepSlice: 0},
		{Node: 2, Egress: 0, DepSlice: 1}, // packet is at N1, not N2
	}}
	if _, err := CompileRouting(ix, []core.Path{bad3}, CompileOptions{Lookup: core.LookupHop}); err == nil {
		t.Fatal("inconsistent hop chain accepted")
	}
}

func TestCompileMergesMultipathGroups(t *testing.T) {
	// VLB over the rotor schedule yields diverging actions at the source
	// per (src, dst, ts); compilation must merge them into one group.
	circuits, numSlices, err := topo.RoundRobin(6, 2)
	if err != nil {
		t.Fatal(err)
	}
	sched := &core.Schedule{NumSlices: numSlices, SliceDuration: time.Microsecond, Circuits: circuits}
	ix := core.NewConnIndex(sched)
	paths := routing.VLB(ix, routing.Options{})
	cr, err := CompileRouting(ix, paths, CompileOptions{
		Lookup: core.LookupHop, Multipath: core.MultipathPacket})
	if err != nil {
		t.Fatal(err)
	}
	// Each node must have a table, and lookups at any (arr, src, dst)
	// must succeed.
	for n := core.NodeID(0); n < 6; n++ {
		if cr.Tables[n] == nil {
			t.Fatalf("node %d has no table", n)
		}
	}
	found := false
	for _, e := range cr.Tables[0].Entries() {
		if len(e.Actions) > 1 {
			if e.Mode != core.MultipathPacket {
				t.Fatalf("group entry with mode %v", e.Mode)
			}
			found = true
		}
	}
	if !found {
		t.Fatal("no multipath group produced for VLB spray")
	}
	// Without a multipath mode, the same paths must be rejected.
	if _, err := CompileRouting(ix, paths, CompileOptions{Lookup: core.LookupHop}); err == nil {
		t.Fatal("diverging actions accepted with MULTIPATH=none")
	}
}

func TestCompileDuplicateActionsAccumulateWeight(t *testing.T) {
	sched := fig2Schedule(t)
	p := core.Path{Src: 0, Dst: 3, TS: 0, Weight: 0.5, Hops: []core.Hop{
		{Node: 0, Egress: 0, DepSlice: 0},
		{Node: 1, Egress: 0, DepSlice: 1},
	}}
	cr, err := CompileRouting(core.NewConnIndex(sched), []core.Path{p, p}, CompileOptions{Lookup: core.LookupHop})
	if err != nil {
		t.Fatal(err)
	}
	es := cr.Tables[0].Entries()
	if len(es) != 1 || len(es[0].Actions) != 1 {
		t.Fatalf("entries = %v", es)
	}
	if es[0].Actions[0].Weight != 1.0 {
		t.Fatalf("weight = %g, want accumulated 1.0", es[0].Actions[0].Weight)
	}
}

func TestCompileWildcardTAPaths(t *testing.T) {
	mesh, err := topo.UniformMesh(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched := &core.Schedule{NumSlices: 1, Circuits: mesh}
	ix := core.NewConnIndex(sched)
	paths := routing.ECMP(ix, routing.Options{})
	cr, err := CompileRouting(ix, paths, CompileOptions{
		Lookup: core.LookupHop, Multipath: core.MultipathFlow})
	if err != nil {
		t.Fatal(err)
	}
	// Wildcard entries must match any arrival slice.
	for n, tab := range cr.Tables {
		for _, e := range tab.Entries() {
			if !e.Match.ArrSlice.IsWildcard() {
				t.Fatalf("node %d entry %+v not wildcard-slice", n, e.Match)
			}
		}
	}
}

func TestCompileTopo(t *testing.T) {
	circuits, numSlices, err := topo.RoundRobin(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	sched := &core.Schedule{NumSlices: numSlices, SliceDuration: time.Microsecond, Circuits: circuits}
	prog, err := CompileTopo(sched, OCSStructure{Count: 2, PortsPerOCS: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Connections) != len(circuits) {
		t.Fatalf("connections = %d, want %d", len(prog.Connections), len(circuits))
	}
	// Uplink u -> OCS u%2: port 0 circuits on OCS 0, port 1 on OCS 1.
	for _, cn := range prog.Connections {
		if cn.OCS < 0 || cn.OCS > 1 {
			t.Fatalf("bad OCS id %d", cn.OCS)
		}
	}
}

func TestCompileTopoRejectsBadStructure(t *testing.T) {
	circuits, numSlices, err := topo.RoundRobin(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	sched := &core.Schedule{NumSlices: numSlices, SliceDuration: time.Microsecond, Circuits: circuits}
	// Too few OCS ports for 8 nodes.
	if _, err := CompileTopo(sched, OCSStructure{Count: 2, PortsPerOCS: 4}); err == nil {
		t.Fatal("port overflow accepted")
	}
	if _, err := CompileTopo(sched, OCSStructure{Count: 0, PortsPerOCS: 8}); err == nil {
		t.Fatal("zero OCS accepted")
	}
	// Mismatched uplinks: circuit between port 0 and port 1 with 2 OCSes
	// lands on different devices.
	bad := &core.Schedule{NumSlices: 1, Circuits: []core.Circuit{
		{A: 0, PortA: 0, B: 1, PortB: 1, Slice: 0},
	}}
	if _, err := CompileTopo(bad, OCSStructure{Count: 2, PortsPerOCS: 8}); err == nil {
		t.Fatal("cross-OCS circuit accepted")
	}
}
