package routing

import (
	"container/heap"
	"fmt"
	"sort"

	"openoptics/internal/core"
)

// This file keeps the map-backed earliest-path search that the dense
// search replaced, as a test-only reference: one Dijkstra per
// (src, dst, ts) over four maps, with container/heap of *refItem and the
// fmt-built path keys. The differential test requires the dense search,
// the shared per-source loop and the byte-key comparator to reproduce it
// exactly.

type refState struct {
	node core.NodeID
	off  int32
}

type refItem struct {
	st   refState
	cost teCost
	idx  int
}

type refQueue []*refItem

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].cost.less(q[j].cost) }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i]; q[i].idx = i; q[j].idx = j }
func (q *refQueue) Push(x any)        { it := x.(*refItem); it.idx = len(*q); *q = append(*q, it) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

type refPred struct {
	from   refState
	egress core.PortID
}

func refSearch(ix *core.ConnIndex, src core.NodeID, ts core.Slice, opt Options) (map[refState]teCost, map[refState][]refPred) {
	numSlices := ix.NumSlices()
	horizon := int32(2 * numSlices)
	maxHop := int32(opt.maxHop())

	dist := make(map[refState]teCost)
	preds := make(map[refState][]refPred)

	start := refState{node: src, off: 0}
	dist[start] = teCost{}
	pq := &refQueue{}
	heap.Push(pq, &refItem{st: start, cost: teCost{}})
	done := make(map[refState]bool)

	relax := func(to refState, c teCost, p refPred) {
		cur, seen := dist[to]
		switch {
		case !seen || c.less(cur):
			dist[to] = c
			preds[to] = []refPred{p}
			heap.Push(pq, &refItem{st: to, cost: c})
		case !cur.less(c):
			preds[to] = append(preds[to], p)
		}
	}

	for pq.Len() > 0 {
		it := heap.Pop(pq).(*refItem)
		st, c := it.st, it.cost
		if done[st] || c != dist[st] {
			continue
		}
		done[st] = true
		if st.off+1 < horizon {
			relax(refState{node: st.node, off: st.off + 1},
				teCost{off: c.off + 1, hops: c.hops},
				refPred{from: st, egress: core.NoPort})
		}
		if c.hops >= maxHop {
			continue
		}
		cur := core.Slice((int32(ts) + st.off) % int32(numSlices))
		for _, cc := range ix.Circuits(st.node, cur) {
			peer, _, ok := cc.Other(st.node)
			if !ok {
				continue
			}
			egress, _ := cc.LocalPort(st.node)
			relax(refState{node: peer, off: st.off},
				teCost{off: c.off, hops: c.hops + 1},
				refPred{from: st, egress: egress})
		}
	}
	return dist, preds
}

func refReconstruct(ix *core.ConnIndex, src, dst core.NodeID, ts core.Slice,
	preds map[refState][]refPred, goal refState, maxPaths int) []core.Path {

	numSlices := int32(ix.NumSlices())
	var out []core.Path
	type frame struct {
		st   refState
		hops []core.Hop
	}
	stack := []frame{{st: goal}}
	for len(stack) > 0 && len(out) < maxPaths {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f.st == (refState{node: src, off: 0}) {
			hops := make([]core.Hop, len(f.hops))
			for i := range f.hops {
				hops[i] = f.hops[len(f.hops)-1-i]
			}
			out = append(out, core.Path{Src: src, Dst: dst, TS: ts, Hops: hops, Weight: 1})
			continue
		}
		for _, p := range preds[f.st] {
			if p.egress == core.NoPort {
				stack = append(stack, frame{st: p.from, hops: f.hops})
				continue
			}
			dep := core.Slice((int32(ts) + p.from.off) % numSlices)
			h := core.Hop{Node: p.from.node, Egress: p.egress, DepSlice: dep}
			nh := make([]core.Hop, len(f.hops)+1)
			copy(nh, f.hops)
			nh[len(f.hops)] = h
			stack = append(stack, frame{st: p.from, hops: nh})
		}
	}
	return out
}

func refEarliestPaths(ix *core.ConnIndex, src, dst core.NodeID, ts core.Slice, opt Options) []core.Path {
	if src == dst {
		return nil
	}
	dist, preds := refSearch(ix, src, ts, opt)
	best := teCost{off: 1 << 30}
	var goal refState
	found := false
	for st, c := range dist {
		if st.node != dst {
			continue
		}
		if !found || c.less(best) {
			best, goal, found = c, st, true
		}
	}
	if !found {
		return nil
	}
	paths := refReconstruct(ix, src, dst, ts, preds, goal, opt.maxPaths())
	refSortPaths(paths)
	return paths
}

func refSortPaths(paths []core.Path) {
	sort.Slice(paths, func(i, j int) bool { return refPathKey(&paths[i]) < refPathKey(&paths[j]) })
}

// refPathKey is the fmt-built key the comparator must reproduce byte for
// byte.
func refPathKey(p *core.Path) string {
	s := fmt.Sprintf("%d|%d|%d|", p.Src, p.Dst, p.TS)
	for _, h := range p.Hops {
		s += fmt.Sprintf("%d,%d,%d;", h.Node, h.Egress, h.DepSlice)
	}
	return s
}

func refOpera(ix *core.ConnIndex, opt Options) []core.Path {
	numSlices := ix.NumSlices()
	return AllPairs(ix, func(s, d core.NodeID) []core.Path {
		var out []core.Path
		for ts := 0; ts < numSlices; ts++ {
			arr := core.Slice(ts)
			g := refStaticGraph{ix: ix, ts: arr}
			seqs := g.shortestPaths(s, d, opt.maxPaths())
			if len(seqs) == 0 {
				out = append(out, refEarliestPaths(ix, s, d, arr, opt)...)
				continue
			}
			for _, seq := range seqs {
				if p, ok := refPathFromNodes(g, seq, arr, 1); ok {
					out = append(out, p)
				}
			}
		}
		refSortPaths(out)
		return out
	})
}

func refUCMP(ix *core.ConnIndex, opt Options) []core.Path {
	numSlices := ix.NumSlices()
	return AllPairs(ix, func(s, d core.NodeID) []core.Path {
		var out []core.Path
		for ts := 0; ts < numSlices; ts++ {
			paths := refEarliestPaths(ix, s, d, core.Slice(ts), opt)
			if len(paths) == 0 {
				continue
			}
			w := 1.0 / float64(len(paths))
			for i := range paths {
				paths[i].Weight = w
			}
			out = append(out, paths...)
		}
		return out
	})
}

func refHOHO(ix *core.ConnIndex, opt Options) []core.Path {
	numSlices := ix.NumSlices()
	o := opt
	o.MaxPaths = 1
	return AllPairs(ix, func(s, d core.NodeID) []core.Path {
		var out []core.Path
		for ts := 0; ts < numSlices; ts++ {
			paths := refEarliestPaths(ix, s, d, core.Slice(ts), o)
			out = append(out, paths...)
		}
		return out
	})
}
