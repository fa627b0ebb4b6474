package routing

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"openoptics/internal/core"
	"openoptics/internal/topo"
)

// fig2Index builds the 4-node, 3-slice example of Fig. 2:
//
//	ts=0: N0-N1, N2-N3
//	ts=1: N0-N2, N1-N3
//	ts=2: N0-N3, N1-N2
func fig2Index(t *testing.T) *core.ConnIndex {
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
	return core.NewConnIndex(s)
}

func TestEarliestPathsFig2(t *testing.T) {
	ix := fig2Index(t)
	// Packet at N0 for N3 arriving ts=0. Paths ① (wait for direct at
	// ts=2) and ② (hop to N1 at ts=0, then N1->N3 at ts=1) from Fig. 2:
	// path ② delivers in ts=1, strictly earlier, so earliest_path must
	// return it.
	paths := EarliestPaths(ix, 0, 3, 0, Options{MaxHop: 2})
	if len(paths) == 0 {
		t.Fatal("no path found")
	}
	p := paths[0]
	if len(p.Hops) != 2 {
		t.Fatalf("path = %v, want the 2-hop path via N1", p)
	}
	if p.Hops[0].Node != 0 || p.Hops[0].DepSlice != 0 {
		t.Fatalf("first hop = %v", p.Hops[0])
	}
	if p.Hops[1].Node != 1 || p.Hops[1].DepSlice != 1 {
		t.Fatalf("second hop = %v, want N1 departing ts=1", p.Hops[1])
	}
	if p.DeliverySlice() != 1 {
		t.Fatalf("delivery slice = %d, want 1", p.DeliverySlice())
	}
}

func TestEarliestPathsHopBound(t *testing.T) {
	ix := fig2Index(t)
	// With MaxHop=1, the only way from N0 to N3 is the direct circuit at
	// ts=2 (path ① in Fig. 2).
	paths := EarliestPaths(ix, 0, 3, 0, Options{MaxHop: 1})
	if len(paths) != 1 {
		t.Fatalf("paths = %v", paths)
	}
	p := paths[0]
	if len(p.Hops) != 1 || p.Hops[0].DepSlice != 2 {
		t.Fatalf("path = %v, want single hop departing ts=2", p)
	}
}

func TestEarliestPathsSameNode(t *testing.T) {
	ix := fig2Index(t)
	if got := EarliestPaths(ix, 1, 1, 0, Options{}); got != nil {
		t.Fatalf("self path = %v", got)
	}
}

func TestDirectTO(t *testing.T) {
	ix := fig2Index(t)
	paths := Direct(ix, Options{})
	// 4 nodes * 3 dsts * 3 slices = 36 paths, all single hop.
	if len(paths) != 36 {
		t.Fatalf("got %d paths, want 36", len(paths))
	}
	byKey := indexPaths(paths)
	p := byKey[key{0, 3, 0}]
	if len(p) != 1 || len(p[0].Hops) != 1 || p[0].Hops[0].DepSlice != 2 {
		t.Fatalf("direct N0->N3@0 = %v", p)
	}
	// Packet arriving in the slice of its direct circuit departs immediately.
	p = byKey[key{0, 1, 0}]
	if p[0].Hops[0].DepSlice != 0 {
		t.Fatalf("direct N0->N1@0 = %v", p)
	}
}

func TestVLBSpraysOverCurrentCircuits(t *testing.T) {
	ix := fig2Index(t)
	paths := VLB(ix, Options{})
	byKey := indexPaths(paths)
	// N0->N3 at ts=0: spray over N1 (then N1->N3 at ts=1). Direct circuit
	// N0-N1 exists; N0's only circuit at ts=0 is to N1.
	p := byKey[key{0, 3, 0}]
	if len(p) != 1 {
		t.Fatalf("VLB N0->N3@0 = %v", p)
	}
	if len(p[0].Hops) != 2 || p[0].Hops[1].Node != 1 || p[0].Hops[1].DepSlice != 1 {
		t.Fatalf("VLB path = %v", p[0])
	}
	// N0->N1 at ts=0: the circuit is direct — single hop.
	p = byKey[key{0, 1, 0}]
	if len(p) != 1 || len(p[0].Hops) != 1 {
		t.Fatalf("VLB direct = %v", p)
	}
}

func TestVLBOnRotorSchedule(t *testing.T) {
	circuits, numSlices, err := topo.RoundRobin(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := &core.Schedule{NumSlices: numSlices, SliceDuration: time.Microsecond, Circuits: circuits}
	ix := core.NewConnIndex(s)
	paths := VLB(ix, Options{})
	// Every (src, dst, ts) triple must have at least one path, and every
	// path must be valid and at most 2 hops.
	byKey := indexPaths(paths)
	for src := core.NodeID(0); src < 8; src++ {
		for dst := core.NodeID(0); dst < 8; dst++ {
			if src == dst {
				continue
			}
			for ts := 0; ts < numSlices; ts++ {
				ps := byKey[key{src, dst, core.Slice(ts)}]
				if len(ps) == 0 {
					t.Fatalf("no VLB path %d->%d@%d", src, dst, ts)
				}
				for _, p := range ps {
					if err := p.Validate(); err != nil {
						t.Fatal(err)
					}
					if len(p.Hops) > 2 {
						t.Fatalf("VLB path with %d hops: %v", len(p.Hops), p)
					}
				}
			}
		}
	}
}

func TestOperaStaysInSlice(t *testing.T) {
	// Opera schedule: 8 nodes, 2 uplinks -> each slice is a union of 2
	// matchings (2-regular), connected for most instances.
	circuits, numSlices, err := topo.RoundRobin(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := &core.Schedule{NumSlices: numSlices, SliceDuration: time.Microsecond, Circuits: circuits}
	ix := core.NewConnIndex(s)
	paths := Opera(ix, Options{MaxHop: 6, MaxPaths: 4})
	if len(paths) == 0 {
		t.Fatal("no opera paths")
	}
	byKey := indexPaths(paths)
	sameSlice := 0
	total := 0
	for k, ps := range byKey {
		if len(ps) == 0 {
			t.Fatalf("no opera path for %v", k)
		}
		for _, p := range ps {
			total++
			in := true
			for _, h := range p.Hops {
				if h.DepSlice != p.TS {
					in = false
				}
			}
			if in {
				sameSlice++
			}
		}
	}
	// The vast majority of paths must be same-slice (that is Opera's
	// point); fallbacks are allowed only for disconnected instances.
	if float64(sameSlice) < 0.8*float64(total) {
		t.Fatalf("only %d/%d paths stay in-slice", sameSlice, total)
	}
}

func TestUCMPWeightsUniform(t *testing.T) {
	circuits, numSlices, err := topo.RoundRobin(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	s := &core.Schedule{NumSlices: numSlices, SliceDuration: time.Microsecond, Circuits: circuits}
	ix := core.NewConnIndex(s)
	paths := UCMP(ix, Options{MaxHop: 4, MaxPaths: 4})
	byKey := indexPaths(paths)
	for k, ps := range byKey {
		var wsum float64
		var cost core.Slice = -2
		for _, p := range ps {
			wsum += p.Weight
			// All paths in a group share the delivery slice (uniform cost).
			d := p.DeliverySlice()
			rel := (d - k.ts + core.Slice(numSlices)) % core.Slice(numSlices)
			if cost == -2 {
				cost = rel
			} else if rel != cost {
				t.Fatalf("%v: mixed delivery offsets %d vs %d", k, rel, cost)
			}
		}
		if wsum < 0.999 || wsum > 1.001 {
			t.Fatalf("%v: weights sum to %g", k, wsum)
		}
	}
}

func TestHOHOSinglePathOptimal(t *testing.T) {
	ix := fig2Index(t)
	paths := HOHO(ix, Options{MaxHop: 3})
	byKey := indexPaths(paths)
	for k, ps := range byKey {
		if len(ps) != 1 {
			t.Fatalf("%v: %d paths, want 1", k, len(ps))
		}
	}
	// HOHO N0->N3@0 must pick the 2-hop path delivering at ts=1, like
	// earliest_path.
	p := byKey[key{0, 3, 0}][0]
	if p.DeliverySlice() != 1 {
		t.Fatalf("HOHO delivery = %d, want 1", p.DeliverySlice())
	}
}

func TestECMPOnMesh(t *testing.T) {
	circuits, err := topo.UniformMesh(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := &core.Schedule{NumSlices: 1, Circuits: circuits}
	ix := core.NewConnIndex(s)
	paths := ECMP(ix, Options{MaxPaths: 4})
	byKey := indexPaths(paths)
	for src := core.NodeID(0); src < 8; src++ {
		for dst := core.NodeID(0); dst < 8; dst++ {
			if src == dst {
				continue
			}
			ps := byKey[key{src, dst, core.WildcardSlice}]
			if len(ps) == 0 {
				t.Fatalf("no ECMP path %d->%d", src, dst)
			}
			want := len(ps[0].Hops)
			for _, p := range ps {
				if len(p.Hops) != want {
					t.Fatalf("ECMP returned unequal-cost paths for %d->%d", src, dst)
				}
				if err := p.Validate(); err != nil {
					t.Fatal(err)
				}
				if !p.TS.IsWildcard() {
					t.Fatal("ECMP path not wildcard-slice")
				}
			}
		}
	}
}

func TestWCMPWeightsByParallelCircuits(t *testing.T) {
	// The via-1 path has two parallel circuits on both of its links
	// (bottleneck 2); the via-2 path has single circuits (bottleneck 1).
	// WCMP must weight them 2:1.
	s := &core.Schedule{NumSlices: 1, Circuits: []core.Circuit{
		{A: 0, PortA: 0, B: 1, PortB: 0, Slice: core.WildcardSlice},
		{A: 0, PortA: 1, B: 1, PortB: 1, Slice: core.WildcardSlice},
		{A: 0, PortA: 2, B: 2, PortB: 0, Slice: core.WildcardSlice},
		{A: 1, PortA: 2, B: 3, PortB: 0, Slice: core.WildcardSlice},
		{A: 1, PortA: 3, B: 3, PortB: 2, Slice: core.WildcardSlice},
		{A: 2, PortA: 1, B: 3, PortB: 1, Slice: core.WildcardSlice},
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	ix := core.NewConnIndex(s)
	paths := WCMP(ix, Options{MaxPaths: 4})
	byKey := indexPaths(paths)
	ps := byKey[key{0, 3, core.WildcardSlice}]
	if len(ps) != 2 {
		t.Fatalf("paths 0->3 = %v", ps)
	}
	weights := map[core.NodeID]float64{}
	for _, p := range ps {
		// identify via first hop's far side using hop count 2
		if len(p.Hops) != 2 {
			t.Fatalf("path = %v", p)
		}
		weights[p.Hops[1].Node] = p.Weight
	}
	if weights[1] != 2 || weights[2] != 1 {
		t.Fatalf("weights = %v, want via-1:2 via-2:1", weights)
	}
}

func TestKSPReturnsLongerPaths(t *testing.T) {
	// Ring of 5: 0-1-2-3-4-0. KSP(2) from 0 to 2 must return 0-1-2 (2
	// hops) and 0-4-3-2 (3 hops).
	s := &core.Schedule{NumSlices: 1, Circuits: []core.Circuit{
		{A: 0, PortA: 0, B: 1, PortB: 0, Slice: core.WildcardSlice},
		{A: 1, PortA: 1, B: 2, PortB: 0, Slice: core.WildcardSlice},
		{A: 2, PortA: 1, B: 3, PortB: 0, Slice: core.WildcardSlice},
		{A: 3, PortA: 1, B: 4, PortB: 0, Slice: core.WildcardSlice},
		{A: 4, PortA: 1, B: 0, PortB: 1, Slice: core.WildcardSlice},
	}}
	ix := core.NewConnIndex(s)
	paths := KSP(ix, 2, Options{})
	byKey := indexPaths(paths)
	ps := byKey[key{0, 2, core.WildcardSlice}]
	if len(ps) != 2 {
		t.Fatalf("KSP 0->2 = %v", ps)
	}
	lens := []int{len(ps[0].Hops), len(ps[1].Hops)}
	if !(lens[0] == 2 && lens[1] == 3 || lens[0] == 3 && lens[1] == 2) {
		t.Fatalf("KSP path lengths = %v, want {2,3}", lens)
	}
}

// TestKSPBreaksTiesByNodeID: Yen's algorithm takes, of two equally long
// candidates, the one whose node IDs compare lower, also for IDs a
// string(rune) key cannot tell apart: 0xD800 and 0xD801 are surrogates,
// which both encode as U+FFFD.
func TestKSPBreaksTiesByNodeID(t *testing.T) {
	const s, d, y, q, r, x, p = 0, 1, 2, 3, 4, 0xD800, 0xD801
	var circuits []core.Circuit
	for i, e := range [][2]core.NodeID{{s, x}, {x, y}, {y, d}, {s, p}, {p, q}, {q, d}, {x, r}, {r, d}} {
		circuits = append(circuits, core.Circuit{A: e[0], PortA: core.PortID(i), B: e[1], PortB: core.PortID(i),
			Slice: core.WildcardSlice})
	}
	ix := core.NewConnIndex(&core.Schedule{NumSlices: 1, Circuits: circuits})
	var got [][]core.NodeID
	for _, path := range KSP(ix, 2, Options{}) {
		if path.Src == s && path.Dst == d {
			var seq []core.NodeID
			for _, h := range path.Hops {
				seq = append(seq, h.Node)
			}
			got = append(got, append(seq, path.Dst))
		}
	}
	if want := [][]core.NodeID{{s, x, y, d}, {s, x, r, d}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("KSP(2) 0->1 = %v, want %v", got, want)
	}
}

// Property: earliest-path results on random rotor schedules are always
// valid paths that respect the hop bound and deliver no later than the
// direct circuit.
func TestEarliestPathsProperty(t *testing.T) {
	circuits, numSlices, err := topo.RoundRobin(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := &core.Schedule{NumSlices: numSlices, SliceDuration: time.Microsecond, Circuits: circuits}
	ix := core.NewConnIndex(s)
	f := func(srcRaw, dstRaw, tsRaw uint8) bool {
		src := core.NodeID(srcRaw % 8)
		dst := core.NodeID(dstRaw % 8)
		if src == dst {
			return true
		}
		ts := core.Slice(int(tsRaw) % numSlices)
		paths := EarliestPaths(ix, src, dst, ts, Options{MaxHop: 2, MaxPaths: 4})
		if len(paths) == 0 {
			return false // rotor schedules always connect within a cycle
		}
		// Direct-path delivery offset for comparison.
		dep, _, ok := ix.EarliestDirect(src, dst, ts)
		if !ok {
			return false
		}
		directOff := (int(dep) - int(ts) + numSlices) % numSlices
		for _, p := range paths {
			if p.Validate() != nil || len(p.Hops) > 2 {
				return false
			}
			off := (int(p.DeliverySlice()) - int(ts) + numSlices) % numSlices
			if off > directOff {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

type key struct {
	src, dst core.NodeID
	ts       core.Slice
}

func indexPaths(paths []core.Path) map[key][]core.Path {
	m := make(map[key][]core.Path)
	for _, p := range paths {
		k := key{p.Src, p.Dst, p.TS}
		m[k] = append(m[k], p)
	}
	return m
}

// TestUCMPIsHOHOAtOneUplink pins where UCMP's multipath exists on a round
// robin: at one uplink every (src, dst, slice) has exactly one earliest
// path, so UCMP returns HOHO's paths; at two uplinks it spreads over more.
// arch.RotorNet defaults to one uplink, so its UCMP routes as HOHO.
func TestUCMPIsHOHOAtOneUplink(t *testing.T) {
	index := func(nodes, uplink int) *core.ConnIndex {
		circuits, numSlices, err := topo.RoundRobin(nodes, uplink)
		if err != nil {
			t.Fatal(err)
		}
		return core.NewConnIndex(&core.Schedule{NumSlices: numSlices, Circuits: circuits})
	}
	for _, nodes := range []int{4, 8, 12, 16} {
		ix := index(nodes, 1)
		if u, h := UCMP(ix, Options{}), HOHO(ix, Options{}); !reflect.DeepEqual(u, h) {
			t.Fatalf("%d nodes, one uplink: UCMP gave %d paths, HOHO %d, and they differ", nodes, len(u), len(h))
		}
	}
	ix := index(16, 2)
	if u, h := len(UCMP(ix, Options{})), len(HOHO(ix, Options{})); u != 2482 || h != 1920 {
		t.Fatalf("16 nodes, two uplinks: UCMP gave %d paths and HOHO %d, want 2482 and 1920", u, h)
	}
}
