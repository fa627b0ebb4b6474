package core

import "slices"

// ConnIndex is a queryable index over a circuit set, answering the
// connectivity questions routing algorithms ask: "who is node n connected
// to in slice ts?" (the neighbors() helper of Table 1), "which circuit
// joins a and b in slice ts?", "how many hops is every node from src in
// slice ts?" and "when does a's next direct circuit to b come?". Static
// (wildcard-slice) circuits are visible in every slice.
//
// The index is dense and immutable: every (view, row) pair — view v < the
// cycle length for slice v, view numSlices for the static-only view, row r
// for the r-th node of Nodes() — owns a run of circuits[off[i]:off[i+1]]
// and of neighbors[noff[i]:noff[i+1]], i = v*len(nodes) + r, built once by
// NewConnIndex. A slice view lists the slice's own circuits and then the
// static ones, each in schedule order. Returned slices are shared:
// callers must not mutate them.
type ConnIndex struct {
	numSlices int
	nodes     []NodeID // ascending; a node's row is its position

	off      []int32
	circuits []Circuit
	peerRows []int32 // peerRows[j]: the row of circuits[j]'s far end

	noff      []int32
	neighbors []NodeID // per (view, row): distinct peers, ascending
}

// NewConnIndex builds an index for the given schedule.
func NewConnIndex(s *Schedule) *ConnIndex {
	ns := s.NumSlices
	if ns < 1 {
		ns = 1
	}
	ix := &ConnIndex{numSlices: ns}
	for _, c := range s.Circuits {
		ix.nodes = append(ix.nodes, c.A, c.B)
	}
	slices.Sort(ix.nodes)
	ix.nodes = slices.Clip(slices.Compact(ix.nodes))
	nr := len(ix.nodes)
	views := (ns + 1) * nr

	// Count, then place: slice circuits first, static circuits second, so
	// every run lists its slice's circuits before the static ones, each in
	// schedule order.
	rowOf := func(n NodeID) int { r, _ := slices.BinarySearch(ix.nodes, n); return r }
	each := func(f func(view, row int, c Circuit)) {
		for _, static := range []bool{false, true} {
			for _, c := range s.Circuits {
				if c.Slice.IsWildcard() != static {
					continue
				}
				ra, rb := rowOf(c.A), rowOf(c.B)
				if !static {
					v := int(c.Slice) % ns
					f(v, ra, c)
					f(v, rb, c)
					continue
				}
				for v := 0; v <= ns; v++ {
					f(v, ra, c)
					f(v, rb, c)
				}
			}
		}
	}
	ix.off = make([]int32, views+1)
	each(func(v, r int, _ Circuit) { ix.off[v*nr+r+1]++ })
	for i := 1; i <= views; i++ {
		ix.off[i] += ix.off[i-1]
	}
	ix.circuits = make([]Circuit, ix.off[views])
	ix.peerRows = make([]int32, ix.off[views])
	next := slices.Clone(ix.off[:views])
	each(func(v, r int, c Circuit) {
		j := next[v*nr+r]
		next[v*nr+r]++
		peer, _, _ := c.Other(ix.nodes[r])
		ix.circuits[j], ix.peerRows[j] = c, int32(rowOf(peer))
	})

	// Neighbors: each run's distinct peers, ascending.
	ix.noff = make([]int32, views+1)
	ix.neighbors = make([]NodeID, 0, len(ix.circuits))
	for i := 0; i < views; i++ {
		start := len(ix.neighbors)
		for _, pr := range ix.peerRows[ix.off[i]:ix.off[i+1]] {
			ix.neighbors = append(ix.neighbors, ix.nodes[pr])
		}
		run := ix.neighbors[start:]
		slices.Sort(run)
		ix.neighbors = ix.neighbors[:start+len(slices.Compact(run))]
		ix.noff[i+1] = int32(len(ix.neighbors))
	}
	return ix
}

// NumSlices returns the cycle length the index was built for.
func (ix *ConnIndex) NumSlices() int { return ix.numSlices }

// Nodes returns all endpoint nodes that appear in any circuit, ascending.
func (ix *ConnIndex) Nodes() []NodeID { return ix.nodes }

// Row returns n's position in Nodes(); ok is false for a node on no
// circuit (NoNode included).
func (ix *ConnIndex) Row(n NodeID) (int, bool) {
	return slices.BinarySearch(ix.nodes, n)
}

// view maps a slice to its view: the slice modulo the cycle length, or
// the static-only view for the wildcard slice.
func (ix *ConnIndex) view(ts Slice) int {
	if ts.IsWildcard() {
		return ix.numSlices
	}
	return int(ts) % ix.numSlices
}

// RowCircuits returns the circuits incident to the node of row r during
// slice ts, as Circuits does, with the row of each circuit's far end.
func (ix *ConnIndex) RowCircuits(r int, ts Slice) ([]Circuit, []int32) {
	i := ix.view(ts)*len(ix.nodes) + r
	a, b := ix.off[i], ix.off[i+1]
	return ix.circuits[a:b:b], ix.peerRows[a:b:b]
}

// Circuits returns the circuits incident to node n during slice ts
// (including static circuits), nil if there are none. ts == WildcardSlice
// returns only static circuits — the TA/static-topology view.
func (ix *ConnIndex) Circuits(n NodeID, ts Slice) []Circuit {
	r, ok := ix.Row(n)
	if !ok {
		return nil
	}
	if cs, _ := ix.RowCircuits(r, ts); len(cs) > 0 {
		return cs
	}
	return nil
}

// Neighbors implements the neighbors() helper (Table 1): all nodes with a
// direct circuit to n in slice ts. Duplicate peers (parallel circuits) are
// deduplicated; the order is ascending.
func (ix *ConnIndex) Neighbors(n NodeID, ts Slice) []NodeID {
	r, ok := ix.Row(n)
	if !ok {
		return []NodeID{}
	}
	i := ix.view(ts)*len(ix.nodes) + r
	a, b := ix.noff[i], ix.noff[i+1]
	return ix.neighbors[a:b:b]
}

// CircuitBetween returns a circuit joining a and b during slice ts, if any.
func (ix *ConnIndex) CircuitBetween(a, b NodeID, ts Slice) (Circuit, bool) {
	for _, c := range ix.Circuits(a, ts) {
		if peer, _, ok := c.Other(a); ok && peer == b {
			return c, true
		}
	}
	return Circuit{}, false
}

// EgressPort returns the local port on node n that reaches peer during
// slice ts, the quantity per-hop table compilation needs.
func (ix *ConnIndex) EgressPort(n, peer NodeID, ts Slice) (PortID, bool) {
	c, ok := ix.CircuitBetween(n, peer, ts)
	if !ok {
		return NoPort, false
	}
	return c.LocalPort(n)
}

// EarliestDirect returns the first slice at or after ts, within one cycle,
// in which a has a circuit to b, and a's port on it (the circuit
// EgressPort picks): where a packet waiting at a for a direct circuit
// departs (Fig. 3 a). The slice comes back modulo the cycle length.
func (ix *ConnIndex) EarliestDirect(a, b NodeID, ts Slice) (Slice, PortID, bool) {
	ra, okA := ix.Row(a)
	rb, okB := ix.Row(b)
	if okA && okB {
		for off := range ix.numSlices {
			dep := Slice((int(ts) + off) % ix.numSlices)
			cs, peers := ix.RowCircuits(ra, dep)
			if j := slices.Index(peers, int32(rb)); j >= 0 {
				port, _ := cs[j].LocalPort(a)
				return dep, port, true
			}
		}
	}
	return 0, NoPort, false
}

// HopDistances is a breadth-first search from src over the circuits live
// in slice ts (WildcardSlice: the static circuits only). It fills dist,
// indexed by row, with every node's hop count from src, -1 where src does
// not reach, and returns it with queue, its work list; both reuse the
// caller's buffers when they are large enough.
func (ix *ConnIndex) HopDistances(src NodeID, ts Slice, dist, queue []int32) ([]int32, []int32) {
	n := len(ix.nodes)
	dist = slices.Grow(dist[:0], n)[:n]
	for i := range dist {
		dist[i] = -1
	}
	queue = queue[:0]
	r, ok := ix.Row(src)
	if !ok {
		return dist, queue
	}
	dist[r] = 0
	queue = append(queue, int32(r))
	for i := 0; i < len(queue); i++ {
		u := queue[i]
		_, peers := ix.RowCircuits(int(u), ts)
		for _, p := range peers {
			if dist[p] < 0 {
				dist[p] = dist[u] + 1
				queue = append(queue, p)
			}
		}
	}
	return dist, queue
}
