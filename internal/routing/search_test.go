package routing

import (
	"container/heap"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"openoptics/internal/core"
	"openoptics/internal/topo"
)

// randomIndex is a round-robin schedule on 3–8 nodes with 1–2 uplinks and
// up to half its circuits dropped, so some slices are disconnected and some
// nodes sit on no circuit at all. Some trials spread the node IDs out
// (sparse IDs) or add a static circuit, which is live in every slice.
func randomIndex(rng *rand.Rand) *core.ConnIndex {
	circuits, numSlices, err := topo.RoundRobin(3+rng.Intn(6), 1+rng.Intn(2))
	if err != nil {
		panic(err)
	}
	stride, base := core.NodeID(1), core.NodeID(0)
	if rng.Intn(2) == 0 {
		stride, base = core.NodeID(2+rng.Intn(4)), core.NodeID(rng.Intn(5))
	}
	drop := rng.Float64() / 2
	var kept []core.Circuit
	for _, c := range circuits {
		if rng.Float64() < drop {
			continue
		}
		c.A, c.B = base+stride*c.A, base+stride*c.B
		kept = append(kept, c)
	}
	if rng.Intn(4) == 0 {
		kept = append(kept, core.Circuit{A: base, PortA: 7, B: base + stride, PortB: 7, Slice: core.WildcardSlice})
	}
	return core.NewConnIndex(&core.Schedule{NumSlices: numSlices, Circuits: kept})
}

func randomOptions(rng *rand.Rand, numSlices int) Options {
	o := Options{MaxHop: 1 + rng.Intn(6), MaxPaths: rng.Intn(5)}
	if rng.Intn(3) == 0 {
		o.MaxHopsPerSlice = 1 + rng.Intn(2)
	}
	if rng.Intn(5) == 0 {
		o.Horizon = 1 + rng.Intn(2*numSlices)
	}
	return o
}

// TestDifferentialVsMapSearch requires the dense search, read once per
// (src, ts) for every destination, to reproduce the map-backed
// per-destination search it replaced (reference_test.go) exactly: HOHO,
// UCMP and Opera path for path, and earliest_path() on every (src, dst,
// ts), including endpoints on no circuit (NoNode, past the last node) and
// arrival slices outside [0, S).
func TestDifferentialVsMapSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	algs := []struct {
		name      string
		got, want func(*core.ConnIndex, Options) []core.Path
	}{
		{"HOHO", HOHO, refHOHO},
		{"UCMP", UCMP, refUCMP},
		{"Opera", Opera, refOpera},
	}
	for trial := 0; trial < 40; trial++ {
		ix := randomIndex(rng)
		numSlices := ix.NumSlices()
		opt := randomOptions(rng, numSlices)
		name := fmt.Sprintf("trial %d (%d nodes, %d slices, %+v)", trial, len(ix.Nodes()), numSlices, opt)
		for _, a := range algs {
			if got, want := a.got(ix, opt), a.want(ix, opt); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s differs from the map search:\n got %v\nwant %v", name, a.name, got, want)
			}
		}
		ends := []core.NodeID{core.NoNode, 1 << 20}
		if nodes := ix.Nodes(); len(nodes) > 0 {
			ends = append(ends, nodes[len(nodes)-1]+1)
			ends = append(ends, nodes...)
		}
		arrivals := []core.Slice{-2, core.WildcardSlice, core.Slice(numSlices), core.Slice(numSlices + 3)}
		for ts := range numSlices {
			arrivals = append(arrivals, core.Slice(ts))
		}
		for _, src := range ends {
			for _, ts := range arrivals {
				s := EarliestFrom(ix, src, ts, opt)
				for _, dst := range ends {
					want := refEarliestPaths(ix, src, dst, ts, opt)
					if got := EarliestPaths(ix, src, dst, ts, opt); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: EarliestPaths(%d, %d, ts=%d) = %v, map search %v", name, src, dst, ts, got, want)
					}
					if got := s.Paths(dst); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: shared search Paths(%d) from (%d, ts=%d) = %v, map search %v", name, dst, src, ts, got, want)
					}
				}
			}
		}
	}
}

// TestQueueSiftsLikeContainerHeap drives teQueue and container/heap through
// the same interleaved pushes and pops, with costs drawn from a small range
// so most of them tie, and requires the same items in the same order: tie
// order among equal costs is what keeps compiled paths unchanged.
func TestQueueSiftsLikeContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		var q teQueue
		ref := &refQueue{}
		for id := int32(0); id < 400; id++ {
			if len(q) > 0 && rng.Intn(3) == 0 {
				got, want := q.pop(), heap.Pop(ref).(*refItem)
				if got.st != int32(want.st.node) || got.cost != want.cost {
					t.Fatalf("trial %d: pop = %+v, container/heap %+v", trial, got, *want)
				}
			}
			c := teCost{off: int32(rng.Intn(4)), hops: int32(rng.Intn(3))}
			q.push(teItem{st: id, cost: c})
			heap.Push(ref, &refItem{st: refState{node: core.NodeID(id)}, cost: c})
		}
		for len(q) > 0 {
			got, want := q.pop(), heap.Pop(ref).(*refItem)
			if got.st != int32(want.st.node) || got.cost != want.cost {
				t.Fatalf("trial %d: drain pop = %+v, container/heap %+v", trial, got, *want)
			}
		}
	}
}

// TestPathKeyMatchesFmtKey pins sortPaths to the fmt-built key order it
// replaced: appendPathKey must produce the same bytes, so every comparison
// and therefore every sort permutation is unchanged. The order is textual,
// not numeric, so slice 10 sorts before slice 9 and the wildcard (-1)
// before both.
func TestPathKeyMatchesFmtKey(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ids := []int32{-1, 0, 1, 2, 9, 10, 11, 19, 99, 100, 123, 1000}
	id := func() int32 { return ids[rng.Intn(len(ids))] }
	var paths []core.Path
	for range 400 {
		p := core.Path{Src: core.NodeID(id()), Dst: core.NodeID(id()), TS: core.Slice(id()), Weight: 1}
		for h := rng.Intn(4); h > 0; h-- {
			p.Hops = append(p.Hops, core.Hop{Node: core.NodeID(id()), Egress: core.PortID(id()), DepSlice: core.Slice(id())})
		}
		paths = append(paths, p)
	}
	// Paths as the algorithms emit them: wildcard ECMP/WCMP paths on a mesh
	// with multi-digit node IDs, and VLB on a 16-node rotor (slices >= 10).
	var mesh []core.Circuit
	for a := core.NodeID(8); a < 14; a++ {
		for b := a + 1; b < 14; b++ {
			mesh = append(mesh, core.Circuit{A: a, PortA: core.PortID(b), B: b, PortB: core.PortID(a), Slice: core.WildcardSlice})
		}
	}
	meshIx := core.NewConnIndex(&core.Schedule{NumSlices: 1, Circuits: mesh})
	paths = append(paths, ECMP(meshIx, Options{})...)
	paths = append(paths, WCMP(meshIx, Options{})...)
	rotor, numSlices, err := topo.RoundRobin(16, 1)
	if err != nil {
		t.Fatal(err)
	}
	paths = append(paths, VLB(core.NewConnIndex(&core.Schedule{NumSlices: numSlices, Circuits: rotor}), Options{})...)

	for i := range paths {
		if got, want := string(appendPathKey(nil, &paths[i])), refPathKey(&paths[i]); got != want {
			t.Fatalf("key of %v = %q, fmt key %q", &paths[i], got, want)
		}
	}
	got, want := slices.Clone(paths), slices.Clone(paths)
	rng.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
	copy(want, got)
	sortPaths(got)
	refSortPaths(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("sortPaths order differs from the fmt key order")
	}

	text := []core.Path{{TS: 9}, {TS: 10}, {TS: core.WildcardSlice}}
	sortPaths(text)
	if text[0].TS != core.WildcardSlice || text[1].TS != 10 || text[2].TS != 9 {
		t.Fatalf("order by TS = %d, %d, %d; want -1, 10, 9", text[0].TS, text[1].TS, text[2].TS)
	}
}
