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
				dep, eg2, ok := ix.EarliestDirect(w, d, arr)
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

// Opera materializes Opera's routing: every slice topology is a k-regular
// expander, so a multi-hop path confined to the *current* slice is always
// available — packets never wait for a circuit. Paths are per-slice
// shortest paths with every hop departing in the arrival slice, read off
// one hop tree per (src, slice). If a slice graph is disconnected
// (non-expander schedules), the earliest-path search is the fallback so
// deployment still covers every pair.
func Opera(ix *core.ConnIndex, opt Options) []core.Path {
	numSlices := ix.NumSlices()
	trees := make([]hopTree, numSlices)
	fallback := make([]*Search, numSlices) // per arrival slice, from source `from`
	from := core.NoNode
	return AllPairs(ix, func(s, d core.NodeID) []core.Path {
		if s != from {
			clear(fallback)
			from = s
		}
		var out []core.Path
		for ts := range trees {
			arr := core.Slice(ts)
			seqs := trees[ts].from(ix, s, arr).shortestPaths(d, opt.maxPaths())
			if len(seqs) == 0 {
				if fallback[ts] == nil {
					fallback[ts] = EarliestFrom(ix, s, arr, opt)
				}
				out = append(out, fallback[ts].Paths(d)...)
				continue
			}
			for _, seq := range seqs {
				out = append(out, pathFromNodes(ix, seq, arr, 1))
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
