package controller

import (
	"testing"
	"time"

	"openoptics/internal/core"
)

func TestExternalPortHops(t *testing.T) {
	sched := &core.Schedule{NumSlices: 1, Circuits: []core.Circuit{
		{A: 0, PortA: 0, B: 1, PortB: 0, Slice: core.WildcardSlice},
	}}
	ix := core.NewConnIndex(sched)
	isElec := func(n core.NodeID, p core.PortID) bool { return p == 9 }
	// A hop out of the electrical port needs no circuit and reaches the
	// destination directly.
	ok := core.Path{Src: 0, Dst: 3, TS: core.WildcardSlice, Weight: 1,
		Hops: []core.Hop{{Node: 0, Egress: 9, DepSlice: core.WildcardSlice}}}
	cr, err := CompileRouting(ix, []core.Path{ok}, CompileOptions{
		Lookup: core.LookupHop, ExternalPort: isElec})
	if err != nil {
		t.Fatal(err)
	}
	if cr.Entries != 1 {
		t.Fatalf("entries = %d", cr.Entries)
	}
	// An external hop that is not the last hop is rejected.
	bad := core.Path{Src: 0, Dst: 3, TS: core.WildcardSlice, Weight: 1,
		Hops: []core.Hop{
			{Node: 0, Egress: 9, DepSlice: core.WildcardSlice},
			{Node: 3, Egress: 9, DepSlice: core.WildcardSlice},
		}}
	if _, err := CompileRouting(ix, []core.Path{bad}, CompileOptions{
		Lookup: core.LookupHop, ExternalPort: isElec}); err == nil {
		t.Fatal("mid-path external hop accepted")
	}
	// Without the ExternalPort hook the same path is infeasible.
	if _, err := CompileRouting(ix, []core.Path{ok}, CompileOptions{
		Lookup: core.LookupHop}); err == nil {
		t.Fatal("external hop accepted without the hook")
	}
}

func TestSourceRoutingMultipathGroup(t *testing.T) {
	// Two UCMP-style equal-cost paths from the same (src, ts, dst)
	// compile into one source-routing entry with two weighted actions.
	sched := &core.Schedule{NumSlices: 2, SliceDuration: time.Microsecond, Circuits: []core.Circuit{
		{A: 0, PortA: 0, B: 1, PortB: 0, Slice: 0},
		{A: 0, PortA: 1, B: 2, PortB: 0, Slice: 0},
		{A: 1, PortA: 1, B: 3, PortB: 0, Slice: 1},
		{A: 2, PortA: 1, B: 3, PortB: 1, Slice: 1},
	}}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	paths := []core.Path{
		{Src: 0, Dst: 3, TS: 0, Weight: 0.5, Hops: []core.Hop{
			{Node: 0, Egress: 0, DepSlice: 0}, {Node: 1, Egress: 1, DepSlice: 1}}},
		{Src: 0, Dst: 3, TS: 0, Weight: 0.5, Hops: []core.Hop{
			{Node: 0, Egress: 1, DepSlice: 0}, {Node: 2, Egress: 1, DepSlice: 1}}},
	}
	cr, err := CompileRouting(core.NewConnIndex(sched), paths, CompileOptions{
		Lookup: core.LookupSource, Multipath: core.MultipathPacket})
	if err != nil {
		t.Fatal(err)
	}
	if cr.Entries != 1 {
		t.Fatalf("entries = %d, want 1 grouped source entry", cr.Entries)
	}
	es := cr.Tables[0].Entries()
	if len(es) != 1 || len(es[0].Actions) != 2 {
		t.Fatalf("entry shape: %d entries, %d actions", len(es), len(es[0].Actions))
	}
	for _, a := range es[0].Actions {
		if len(a.SourceRoute) != 2 {
			t.Fatalf("source route len = %d", len(a.SourceRoute))
		}
		if a.Weight != 0.5 {
			t.Fatalf("weight = %g", a.Weight)
		}
	}
	// Only the source node holds state.
	if cr.Tables[1] != nil || cr.Tables[2] != nil {
		t.Fatal("source routing leaked entries to intermediates")
	}
}

func TestCompileEmptyPaths(t *testing.T) {
	sched := &core.Schedule{NumSlices: 1}
	cr, err := CompileRouting(core.NewConnIndex(sched), nil, CompileOptions{Lookup: core.LookupHop})
	if err != nil {
		t.Fatal(err)
	}
	if cr.Entries != 0 || len(cr.Tables) != 0 {
		t.Fatal("empty path set produced entries")
	}
}

func TestCompileUnknownLookupMode(t *testing.T) {
	sched := &core.Schedule{NumSlices: 1}
	if _, err := CompileRouting(core.NewConnIndex(sched), nil, CompileOptions{Lookup: core.LookupMode(9)}); err == nil {
		t.Fatal("unknown lookup mode accepted")
	}
}

func TestOCSProgramDeterminism(t *testing.T) {
	sched := &core.Schedule{NumSlices: 2, SliceDuration: time.Microsecond, Circuits: []core.Circuit{
		{A: 2, PortA: 0, B: 3, PortB: 0, Slice: 1},
		{A: 0, PortA: 0, B: 1, PortB: 0, Slice: 0},
		{A: 1, PortA: 0, B: 2, PortB: 1, Slice: 1},
	}}
	st := OCSStructure{Count: 1, PortsPerOCS: 16, UplinksPerNode: 2}
	a, err := CompileTopo(sched, st)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompileTopo(sched, st)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Connections) != len(b.Connections) {
		t.Fatal("nondeterministic compile")
	}
	for i := range a.Connections {
		if a.Connections[i] != b.Connections[i] {
			t.Fatal("connection order differs between compiles")
		}
	}
	// Sorted by slice then device then port.
	for i := 1; i < len(a.Connections); i++ {
		if a.Connections[i].Slice < a.Connections[i-1].Slice {
			t.Fatal("connections not slice-ordered")
		}
	}
}
