package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// refConnIndex is the circuit index before the dense layout: per-slice
// and static adjacency maps, and Circuits concatenating a node's slice
// circuits with its static ones. It is kept here as the oracle.
type refConnIndex struct {
	numSlices int
	bySlice   []map[NodeID][]Circuit
	static    map[NodeID][]Circuit
}

func newRefConnIndex(s *Schedule) *refConnIndex {
	ns := max(s.NumSlices, 1)
	ix := &refConnIndex{numSlices: ns, bySlice: make([]map[NodeID][]Circuit, ns),
		static: make(map[NodeID][]Circuit)}
	for i := range ix.bySlice {
		ix.bySlice[i] = make(map[NodeID][]Circuit)
	}
	for _, c := range s.Circuits {
		if c.Slice.IsWildcard() {
			ix.static[c.A] = append(ix.static[c.A], c)
			ix.static[c.B] = append(ix.static[c.B], c)
			continue
		}
		m := ix.bySlice[int(c.Slice)%ns]
		m[c.A] = append(m[c.A], c)
		m[c.B] = append(m[c.B], c)
	}
	return ix
}

func (ix *refConnIndex) circuits(n NodeID, ts Slice) []Circuit {
	if ts.IsWildcard() {
		return ix.static[n]
	}
	dyn := ix.bySlice[int(ts)%ix.numSlices][n]
	st := ix.static[n]
	if len(st) == 0 {
		return dyn
	}
	return append(append([]Circuit{}, dyn...), st...)
}

func (ix *refConnIndex) neighbors(n NodeID, ts Slice) []NodeID {
	cs := ix.circuits(n, ts)
	seen := make(map[NodeID]bool, len(cs))
	out := make([]NodeID, 0, len(cs))
	for _, c := range cs {
		peer, _, ok := c.Other(n)
		if ok && !seen[peer] {
			seen[peer] = true
			out = append(out, peer)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// earliestDirect is the scan EarliestDirect replaced: the first slice of
// one cycle from ts with a circuit from a to b.
func (ix *refConnIndex) earliestDirect(a, b NodeID, ts Slice) (Slice, PortID, bool) {
	for off := 0; off < ix.numSlices; off++ {
		dep := Slice((int(ts) + off) % ix.numSlices)
		for _, c := range ix.circuits(a, dep) {
			if peer, _, _ := c.Other(a); peer == b {
				port, _ := c.LocalPort(a)
				return dep, port, true
			}
		}
	}
	return 0, NoPort, false
}

// hopDistances is the map-backed breadth-first search HopDistances
// replaced.
func (ix *refConnIndex) hopDistances(src NodeID, ts Slice) map[NodeID]int32 {
	dist := map[NodeID]int32{src: 0}
	queue := []NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range ix.neighbors(u, ts) {
			if _, ok := dist[v]; !ok {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// TestConnIndexMatchesMaps is the differential test of the dense circuit
// index: on random schedules — sparse and negative node IDs, parallel and
// self circuits, static circuits mixed into rotating ones, slices past the
// cycle length — Circuits and Neighbors must return the map index's
// slices element for element and in the same order, for every node, for
// nodes on no circuit, and for every slice including wildcards and
// aliases past the cycle. EarliestDirect and HopDistances must answer as
// the scan and the map search they replaced, on every pair and slice.
func TestConnIndexMatchesMaps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pool := []NodeID{0, 1, 2, 3, 4, 5}
		if rng.Intn(2) == 0 {
			pool = []NodeID{-4, 0, 9, 1 << 20, 1<<31 - 1}
		}
		s := &Schedule{NumSlices: rng.Intn(5)}
		for i := rng.Intn(30); i > 0; i-- {
			c := Circuit{A: pool[rng.Intn(len(pool))], PortA: PortID(rng.Intn(3)),
				B: pool[rng.Intn(len(pool))], PortB: PortID(rng.Intn(3)), Slice: Slice(rng.Intn(9) - 2)}
			s.Circuits = append(s.Circuits, c)
		}
		ix, ref := NewConnIndex(s), newRefConnIndex(s)
		queries := append([]NodeID{NoNode, 77}, pool...)
		var dist, queue []int32
		for _, n := range queries {
			for ts := Slice(-2); ts < Slice(2*ref.numSlices+1); ts++ {
				for _, b := range queries {
					dep, port, ok := ix.EarliestDirect(n, b, ts)
					wdep, wport, wok := ref.earliestDirect(n, b, ts)
					if dep != wdep || port != wport || ok != wok {
						t.Logf("seed %d: EarliestDirect(%d, %d, %d) = %d, %d, %v; scan %d, %d, %v",
							seed, n, b, ts, dep, port, ok, wdep, wport, wok)
						return false
					}
				}
				dist, queue = ix.HopDistances(n, ts, dist, queue)
				wd := ref.hopDistances(n, ts)
				for r, m := range ix.Nodes() {
					if w, reached := wd[m]; !reached && dist[r] != -1 || reached && dist[r] != w {
						t.Logf("seed %d: HopDistances(%d, %d)[%d] = %d, map search %v", seed, n, ts, m, dist[r], wd)
						return false
					}
				}
				got, want := ix.Circuits(n, ts), ref.circuits(n, ts)
				if len(want) == 0 && got != nil || len(want) > 0 && !reflect.DeepEqual(got, want) {
					t.Logf("seed %d: Circuits(%d, %d) = %v, maps %v", seed, n, ts, got, want)
					return false
				}
				gn, wn := ix.Neighbors(n, ts), ref.neighbors(n, ts)
				if gn == nil || !reflect.DeepEqual(gn, wn) {
					t.Logf("seed %d: Neighbors(%d, %d) = %v, maps %v", seed, n, ts, gn, wn)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
