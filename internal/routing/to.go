package routing

import (
	"openoptics/internal/core"
)

// This file materializes routing() for TO architectures, which route across
// time slices (§2.2): VLB (RotorNet, Sirius), Opera's always-available
// expander paths, UCMP's uniform-cost multipath, and HOHO's hop-on/hop-off
// latency-optimal single path.

// VLB materializes Valiant load balancing on a TO schedule (RotorNet,
// Sirius): a packet arriving at src in slice ts is sprayed over all
// circuits live in that slice (phase 1); the intermediate node buffers it
// until its earliest direct circuit to dst (phase 2). A live direct circuit
// to dst is used as a one-hop path. Deploy with per-packet multipath to get
// RotorNet's packet spraying.
func VLB(ix *core.ConnIndex, opt Options) []core.Path {
	numSlices := ix.NumSlices()
	return AllPairs(ix, func(s, d core.NodeID) []core.Path {
		var out []core.Path
		for ts := 0; ts < numSlices; ts++ {
			arr := core.Slice(ts)
			for _, c := range ix.Circuits(s, arr) {
				w, _, ok := c.Other(s)
				if !ok {
					continue
				}
				eg, _ := c.LocalPort(s)
				if w == d {
					out = append(out, core.Path{Src: s, Dst: d, TS: arr, Weight: 1,
						Hops: []core.Hop{{Node: s, Egress: eg, DepSlice: arr}}})
					continue
				}
				// Phase 2: earliest direct circuit w->d at or after ts.
				dep, eg2, ok := earliestDirect(ix, w, d, arr)
				if !ok {
					continue
				}
				out = append(out, core.Path{Src: s, Dst: d, TS: arr, Weight: 1,
					Hops: []core.Hop{
						{Node: s, Egress: eg, DepSlice: arr},
						{Node: w, Egress: eg2, DepSlice: dep},
					}})
			}
		}
		sortPaths(out)
		return out
	})
}

// earliestDirect finds the first slice at or after ts with a direct circuit
// from a to b, scanning at most one full cycle.
func earliestDirect(ix *core.ConnIndex, a, b core.NodeID, ts core.Slice) (core.Slice, core.PortID, bool) {
	numSlices := ix.NumSlices()
	for off := 0; off < numSlices; off++ {
		dep := core.Slice((int(ts) + off) % numSlices)
		if eg, ok := ix.EgressPort(a, b, dep); ok {
			return dep, eg, true
		}
	}
	return 0, core.NoPort, false
}

// Opera materializes Opera's routing: every slice topology is a k-regular
// expander, so a multi-hop path confined to the *current* slice is always
// available — packets never wait for a circuit. Paths are per-slice
// shortest paths with every hop departing in the arrival slice. If a slice
// graph is disconnected (non-expander schedules), the earliest-path search
// is the fallback so deployment still covers every pair.
func Opera(ix *core.ConnIndex, opt Options) []core.Path {
	numSlices := ix.NumSlices()
	fallback := make([]*Search, numSlices) // per arrival slice, from source `from`
	var from core.NodeID
	return AllPairs(ix, func(s, d core.NodeID) []core.Path {
		if s != from {
			fallback, from = make([]*Search, numSlices), s
		}
		var out []core.Path
		for ts := 0; ts < numSlices; ts++ {
			arr := core.Slice(ts)
			g := staticGraph{ix: ix, ts: arr}
			seqs := g.shortestPaths(s, d, opt.maxPaths())
			if len(seqs) == 0 {
				if fallback[ts] == nil {
					fallback[ts] = EarliestFrom(ix, s, arr, opt)
				}
				out = append(out, fallback[ts].Paths(d)...)
				continue
			}
			for _, seq := range seqs {
				if p, ok := pathFromNodes(g, seq, arr, 1); ok {
					out = append(out, p)
				}
			}
		}
		sortPaths(out)
		return out
	})
}

// UCMP materializes uniform-cost multipath: all minimal-delivery-time paths
// (up to MaxPaths) per (src, dst, arrival slice), each weighted uniformly.
// Spreading over every minimum-cost path is what reduces RotorNet's
// sensitivity to slice duration in the Fig. 10 study. It runs one search
// per (src, arrival slice) and reads every destination off it, emitting
// paths in AllPairs order.
func UCMP(ix *core.ConnIndex, opt Options) []core.Path {
	nodes := ix.Nodes()
	searches := make([]Search, ix.NumSlices())
	var out []core.Path
	for _, s := range nodes {
		for ts := range searches {
			searches[ts].run(ix, s, core.Slice(ts), opt)
		}
		for _, d := range nodes {
			for ts := range searches {
				paths := searches[ts].Paths(d)
				w := 1.0 / float64(len(paths))
				for i := range paths {
					paths[i].Weight = w
				}
				out = append(out, paths...)
			}
		}
	}
	return out
}

// HOHO materializes hop-on hop-off routing: the single latency-optimal path
// per (src, dst, arrival slice) — minimal delivery slice, then minimal hop
// count. Packets "hop on" the earliest useful circuit and "hop off" at the
// node from which the destination is soonest reachable. It is UCMP with one
// path per tuple, whose weight is then 1.
func HOHO(ix *core.ConnIndex, opt Options) []core.Path {
	opt.MaxPaths = 1
	return UCMP(ix, opt)
}
