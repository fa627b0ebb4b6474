// Package routing implements the routing side of the OpenOptics user API
// (Table 1): the abstract routing() function materialized as TA algorithms
// that run within one topology instance (direct-circuit, ECMP, WCMP,
// k-shortest-path) and TO algorithms that run across time slices (VLB,
// Opera, UCMP, HOHO), plus the neighbors() and earliest_path() helpers.
//
// TO algorithms search a time-expanded graph: states are (node, absolute
// slice) pairs; a packet either waits at a node for the next slice or
// traverses a circuit available in the current slice. One search from
// (src, slice) serves every destination. Paths come back as core.Path
// values ready for the controller to compile into time-flow table entries.
package routing

import (
	"bytes"
	"slices"
	"sort"
	"strconv"

	"openoptics/internal/core"
)

// Options tunes the path searches.
type Options struct {
	// MaxHop bounds the number of circuit traversals per path (the
	// max_hop argument of earliest_path in Table 1). 0 means 4.
	MaxHop int
	// MaxHopsPerSlice bounds in-slice chaining (Opera-style multi-hop
	// within one slice). 0 means unlimited (up to MaxHop).
	MaxHopsPerSlice int
	// MaxPaths bounds how many equal-cost paths multipath algorithms
	// return per (src, dst, ts). 0 means 8.
	MaxPaths int
	// Horizon bounds the search in slices. 0 means two optical cycles.
	Horizon int
}

func (o Options) maxHop() int {
	if o.MaxHop <= 0 {
		return 4
	}
	return o.MaxHop
}

func (o Options) maxPaths() int {
	if o.MaxPaths <= 0 {
		return 8
	}
	return o.MaxPaths
}

func (o Options) horizon(numSlices int) int {
	if o.Horizon > 0 {
		return o.Horizon
	}
	h := 2 * numSlices
	if h < 2 {
		h = 2
	}
	return h
}

func (o Options) maxHopsPerSlice() int {
	if o.MaxHopsPerSlice <= 0 {
		return 1 << 30
	}
	return o.MaxHopsPerSlice
}

// teCost orders states of the time-expanded graph: delivery offset first
// (waiting is the dominant delay), then circuit traversals.
type teCost struct {
	off  int32 // slices waited since arrival (absolute, not modulo)
	hops int32 // circuit traversals
}

func (c teCost) less(d teCost) bool {
	if c.off != d.off {
		return c.off < d.off
	}
	return c.hops < d.hops
}

// teItem is a queued state with the cost it was queued at.
type teItem struct {
	st   int32
	cost teCost
}

// teQueue is a binary min-heap on cost that sifts exactly as container/heap
// does: the order in which equal-cost states settle orders their
// predecessors, and so decides which path a MaxPaths-bounded
// reconstruction returns.
type teQueue []teItem

func (q *teQueue) push(it teItem) {
	h := append(*q, it)
	for j := len(h) - 1; j > 0 && h[j].cost.less(h[(j-1)/2].cost); j = (j - 1) / 2 {
		h[j], h[(j-1)/2] = h[(j-1)/2], h[j]
	}
	*q = h
}

func (q *teQueue) pop() teItem {
	h, n := *q, len(*q)-1
	top := h[0]
	h[0], h = h[n], h[:n]
	for i, j := 0, 1; j < n; i, j = j, 2*j+1 {
		if j+1 < n && h[j+1].cost.less(h[j].cost) {
			j++
		}
		if !h[j].cost.less(h[i].cost) {
			break
		}
		h[i], h[j] = h[j], h[i]
	}
	*q = h
	return top
}

// pred records how a state was reached, for path reconstruction. A state
// may keep several equal-cost predecessors (UCMP needs them all).
type pred struct {
	from   int32       // state index
	egress core.PortID // valid for hop edges; NoPort for wait edges
}

// teNode is one state's best cost and how it was reached.
type teNode struct {
	hops    int32 // circuit traversals of the best cost; -1 = unreached
	inSlice int32 // traversals within the state's slice on that path
	preds   []pred
}

// Search is the earliest-path tree of the time-expanded graph from a packet
// arriving at src in slice ts: every reachable state's best cost and its
// equal-cost predecessors. The tree does not depend on the destination, so
// one search answers earliest_path() for every dst.
//
// States are dense: the node at row r of ix.Nodes() at offset off is state
// r*horizon + off. A state's cost.off always equals its off, so a teNode
// stores only the hop count.
type Search struct {
	nodes              []core.NodeID
	src                core.NodeID
	ts                 core.Slice
	numSlices, horizon int32
	start              int32 // src at off 0; -1 if src is on no circuit
	maxPaths           int
	states             []teNode
	queue              teQueue
}

// EarliestFrom runs the Dijkstra over the time-expanded graph from (src,
// ts): a packet either waits at a node for the next slice or traverses a
// circuit live in the current slice.
func EarliestFrom(ix *core.ConnIndex, src core.NodeID, ts core.Slice, opt Options) *Search {
	s := new(Search)
	s.run(ix, src, ts, opt)
	return s
}

// run (re)computes s for (src, ts), reusing its buffers.
func (s *Search) run(ix *core.ConnIndex, src core.NodeID, ts core.Slice, opt Options) {
	s.nodes, s.src, s.ts, s.maxPaths = ix.Nodes(), src, ts, opt.maxPaths()
	s.numSlices = int32(ix.NumSlices())
	s.horizon = int32(opt.horizon(ix.NumSlices()))
	maxHop := int32(opt.maxHop())
	maxPerSlice := opt.maxHopsPerSlice()
	n := len(s.nodes) * int(s.horizon)
	s.states = slices.Grow(s.states[:0], n)[:n]
	for i := range s.states {
		s.states[i].hops = -1
	}
	r, ok := s.row(src)
	if !ok {
		s.start = -1
		return
	}
	s.start = r * s.horizon
	s.states[s.start].hops, s.states[s.start].inSlice = 0, 0
	s.queue = append(s.queue[:0], teItem{st: s.start})
	for len(s.queue) > 0 {
		it := s.queue.pop()
		st, c := it.st, it.cost
		if c.hops != s.states[st].hops {
			continue // superseded: a push needs a strict improvement, so each state settles once
		}
		// Wait edge: stay put until the next slice.
		if c.off+1 < s.horizon {
			s.relax(st+1, teCost{off: c.off + 1, hops: c.hops}, pred{from: st, egress: core.NoPort}, 0)
		}
		// Hop edges: traverse a circuit live in the current slice.
		inSlice := s.states[st].inSlice
		if c.hops >= maxHop || int(inSlice) >= maxPerSlice {
			continue
		}
		node := s.nodes[st/s.horizon]
		cur := core.Slice((int32(ts) + c.off) % s.numSlices)
		for _, cc := range ix.Circuits(node, cur) {
			peer, _, ok := cc.Other(node)
			if !ok {
				continue
			}
			pr, _ := s.row(peer)
			egress, _ := cc.LocalPort(node)
			s.relax(pr*s.horizon+c.off, teCost{off: c.off, hops: c.hops + 1},
				pred{from: st, egress: egress}, inSlice+1)
		}
	}
}

func (s *Search) relax(to int32, c teCost, p pred, inSlice int32) {
	switch n := &s.states[to]; {
	case n.hops < 0 || c.hops < n.hops:
		n.hops, n.inSlice, n.preds = c.hops, inSlice, append(n.preds[:0], p)
		s.queue.push(teItem{st: to, cost: c})
	case c.hops == n.hops: // equal cost: extra predecessor
		n.preds = append(n.preds, p)
	}
}

// row returns n's row in the state array; ok is false for a node on no
// circuit, core.NoNode included.
func (s *Search) row(n core.NodeID) (int32, bool) {
	r, ok := slices.BinarySearch(s.nodes, n)
	return int32(r), ok
}

// Paths returns up to MaxPaths minimal-delivery-time paths to dst, sorted;
// nil if dst is src, is on no circuit, or is unreachable in the horizon.
// The first reached state in dst's row has the smallest offset, which is
// the best cost.
func (s *Search) Paths(dst core.NodeID) []core.Path {
	r, ok := s.row(dst)
	if !ok || dst == s.src {
		return nil
	}
	for goal := r * s.horizon; goal < (r+1)*s.horizon; goal++ {
		if s.states[goal].hops >= 0 {
			paths := s.reconstruct(dst, goal)
			sortPaths(paths)
			return paths
		}
	}
	return nil
}

// reconstruct enumerates up to maxPaths equal-cost paths from the
// predecessor structure, ending at goal. Paths are returned with hop
// departure slices in schedule-modulo form, ready for table compilation.
func (s *Search) reconstruct(dst core.NodeID, goal int32) []core.Path {
	var out []core.Path
	type frame struct {
		st   int32
		hops []core.Hop // reversed (dst-side first)
	}
	stack := []frame{{st: goal}}
	for len(stack) > 0 && len(out) < s.maxPaths {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.st == s.start {
			// Materialize: reverse hops.
			hops := make([]core.Hop, len(f.hops))
			for i := range f.hops {
				hops[i] = f.hops[len(f.hops)-1-i]
			}
			out = append(out, core.Path{Src: s.src, Dst: dst, TS: s.ts, Hops: hops, Weight: 1})
			continue
		}
		for _, p := range s.states[f.st].preds {
			if p.egress == core.NoPort {
				// wait edge: no hop recorded
				stack = append(stack, frame{st: p.from, hops: f.hops})
				continue
			}
			dep := core.Slice((int32(s.ts) + p.from%s.horizon) % s.numSlices)
			h := core.Hop{Node: s.nodes[p.from/s.horizon], Egress: p.egress, DepSlice: dep}
			nh := make([]core.Hop, len(f.hops)+1)
			copy(nh, f.hops)
			nh[len(f.hops)] = h
			stack = append(stack, frame{st: p.from, hops: nh})
		}
	}
	return out
}

// EarliestPaths implements the earliest_path() helper (Table 1): the
// minimal-delivery-time paths from src to dst for a packet arriving at src
// in slice ts, within maxHop circuit traversals. It returns up to
// opt.MaxPaths equal-cost paths; nil if dst is unreachable in the horizon.
func EarliestPaths(ix *core.ConnIndex, src, dst core.NodeID, ts core.Slice, opt Options) []core.Path {
	return EarliestFrom(ix, src, ts, opt).Paths(dst)
}

// Neighbors re-exports the neighbors() helper for API symmetry.
func Neighbors(ix *core.ConnIndex, n core.NodeID, ts core.Slice) []core.NodeID {
	return ix.Neighbors(n, ts)
}

// sortPaths orders paths deterministically so compiled tables are stable
// across runs: lexicographically by the decimal text appendPathKey builds,
// so slice 10 sorts before slice 9 and the wildcard slice (-1) before both.
func sortPaths(paths []core.Path) {
	var ki, kj []byte
	sort.Slice(paths, func(i, j int) bool {
		ki, kj = appendPathKey(ki[:0], &paths[i]), appendPathKey(kj[:0], &paths[j])
		return bytes.Compare(ki, kj) < 0
	})
}

// appendPathKey appends "src|dst|ts|" and then "node,egress,dep;" per hop,
// in decimal.
func appendPathKey(k []byte, p *core.Path) []byte {
	for _, v := range [...]int32{int32(p.Src), int32(p.Dst), int32(p.TS)} {
		k = append(strconv.AppendInt(k, int64(v), 10), '|')
	}
	for _, h := range p.Hops {
		k = append(strconv.AppendInt(k, int64(h.Node), 10), ',')
		k = append(strconv.AppendInt(k, int64(h.Egress), 10), ',')
		k = append(strconv.AppendInt(k, int64(h.DepSlice), 10), ';')
	}
	return k
}

// AllPairs invokes gen for every ordered node pair in ix and collects the
// produced paths — the shape shared by every routing() materialization.
func AllPairs(ix *core.ConnIndex, gen func(src, dst core.NodeID) []core.Path) []core.Path {
	nodes := ix.Nodes()
	var out []core.Path
	for _, s := range nodes {
		for _, d := range nodes {
			if s == d {
				continue
			}
			out = append(out, gen(s, d)...)
		}
	}
	return out
}
