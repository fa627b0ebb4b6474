package routing

import (
	"cmp"
	"slices"

	"openoptics/internal/core"
)

// This file materializes routing() for TA architectures, which route within
// one topology instance (§2.2): direct-circuit, ECMP, WCMP, and k-shortest
// path. Paths carry wildcard time fields, so they compile into classic
// flow-table entries (Fig. 3 c).

// hopTree is the breadth-first tree of one topology instance — the
// circuits live in slice ts (WildcardSlice = static circuits only) — from
// one source: every node's hop distance, by row. It does not depend on the
// destination, so one tree serves every destination.
type hopTree struct {
	ix          *core.ConnIndex
	src         core.NodeID
	ts          core.Slice
	dist, queue []int32
	prev        []int32 // bfsRestricted's predecessor rows
}

// from returns the tree of (src, ts), rebuilding t in its own buffers
// unless it already holds that tree.
func (t *hopTree) from(ix *core.ConnIndex, src core.NodeID, ts core.Slice) *hopTree {
	if t.ix != ix || t.src != src || t.ts != ts {
		t.ix, t.src, t.ts = ix, src, ts
		t.dist, t.queue = ix.HopDistances(src, ts, t.dist, t.queue)
	}
	return t
}

// shortestPaths enumerates up to maxPaths shortest paths from the source to
// dst as node sequences: a backward walk along strictly decreasing
// distance that visits each node's neighbors in ascending order.
func (t *hopTree) shortestPaths(dst core.NodeID, maxPaths int) [][]core.NodeID {
	r, ok := t.ix.Row(dst)
	if !ok || t.dist[r] < 0 {
		return nil
	}
	var out [][]core.NodeID
	var walk func(cur core.NodeID, d int32, suffix []core.NodeID)
	walk = func(cur core.NodeID, d int32, suffix []core.NodeID) {
		if len(out) >= maxPaths {
			return
		}
		if cur == t.src {
			seq := make([]core.NodeID, 0, len(suffix)+1)
			seq = append(seq, cur)
			for i := len(suffix) - 1; i >= 0; i-- {
				seq = append(seq, suffix[i])
			}
			out = append(out, seq)
			return
		}
		for _, p := range t.ix.Neighbors(cur, t.ts) {
			if rp, _ := t.ix.Row(p); t.dist[rp] == d-1 {
				walk(p, d-1, append(suffix, cur))
			}
		}
	}
	walk(dst, t.dist[r], nil)
	return out
}

// bfsRestricted finds a shortest path from s to d in t's instance that
// avoids the banned edges and the excluded nodes, visiting each node's
// neighbors in ascending order; it returns the node sequence or nil.
func (t *hopTree) bfsRestricted(s, d core.NodeID, banned [][2]core.NodeID, exclude []core.NodeID) []core.NodeID {
	nodes := t.ix.Nodes()
	rs, _ := t.ix.Row(s)
	t.prev = slices.Grow(t.prev[:0], len(nodes))[:len(nodes)]
	for i := range t.prev {
		t.prev[i] = -1
	}
	t.prev[rs] = int32(rs)
	t.queue = append(t.queue[:0], int32(rs))
	for i := 0; i < len(t.queue); i++ {
		u := t.queue[i]
		if nodes[u] == d {
			seq := []core.NodeID{d}
			for x := u; x != int32(rs); x = t.prev[x] {
				seq = append(seq, nodes[t.prev[x]])
			}
			slices.Reverse(seq)
			return seq
		}
		for _, v := range t.ix.Neighbors(nodes[u], t.ts) {
			if slices.Contains(exclude, v) || slices.Contains(banned, [2]core.NodeID{nodes[u], v}) {
				continue
			}
			if rv, _ := t.ix.Row(v); t.prev[rv] < 0 {
				t.prev[rv] = u
				t.queue = append(t.queue, int32(rv))
			}
		}
	}
	return nil
}

// pathFromNodes converts a node sequence over the circuits live in slice
// ts into a core.Path whose hops depart in ts: wildcard (TA) or fixed-slice
// (per-instance TO) time fields.
func pathFromNodes(ix *core.ConnIndex, seq []core.NodeID, ts core.Slice, weight float64) core.Path {
	hops := make([]core.Hop, 0, len(seq)-1)
	for i := 0; i+1 < len(seq); i++ {
		eg, _ := ix.EgressPort(seq[i], seq[i+1], ts)
		hops = append(hops, core.Hop{Node: seq[i], Egress: eg, DepSlice: ts})
	}
	return core.Path{Src: seq[0], Dst: seq[len(seq)-1], TS: ts, Hops: hops, Weight: weight}
}

// Direct materializes direct-circuit routing. On a static instance it
// returns only one-hop paths over existing circuits; on a TO schedule it
// returns, per arrival slice, the single-hop path over the earliest direct
// circuit (Fig. 3 a) — the packet waits at the source.
func Direct(ix *core.ConnIndex, opt Options) []core.Path {
	numSlices := ix.NumSlices()
	if numSlices <= 1 {
		return AllPairs(ix, func(s, d core.NodeID) []core.Path {
			eg, ok := ix.EgressPort(s, d, core.WildcardSlice)
			if !ok {
				return nil
			}
			return []core.Path{{Src: s, Dst: d, TS: core.WildcardSlice, Weight: 1,
				Hops: []core.Hop{{Node: s, Egress: eg, DepSlice: core.WildcardSlice}}}}
		})
	}
	return AllPairs(ix, func(s, d core.NodeID) []core.Path {
		var out []core.Path
		for ts := range numSlices {
			if dep, eg, ok := ix.EarliestDirect(s, d, core.Slice(ts)); ok {
				out = append(out, core.Path{Src: s, Dst: d, TS: core.Slice(ts), Weight: 1,
					Hops: []core.Hop{{Node: s, Egress: eg, DepSlice: dep}}})
			}
		}
		return out
	})
}

// ECMP materializes equal-cost multipath over one topology instance: all
// shortest paths (up to MaxPaths), equal weights.
func ECMP(ix *core.ConnIndex, opt Options) []core.Path {
	return shortestMultipath(ix, opt, func(*core.ConnIndex, []core.NodeID) int { return 1 })
}

// WCMP materializes weighted-cost multipath (Jupiter): the equal-cost
// shortest paths are weighted by their bottleneck capacity — the minimum
// number of parallel circuits along the path — so fat paths carry
// proportionally more traffic.
func WCMP(ix *core.ConnIndex, opt Options) []core.Path {
	return shortestMultipath(ix, opt, bottleneck)
}

// shortestMultipath reads every destination's shortest paths (up to
// MaxPaths) in the static instance off one tree per source, each path
// weighted by weight.
func shortestMultipath(ix *core.ConnIndex, opt Options, weight func(*core.ConnIndex, []core.NodeID) int) []core.Path {
	var t hopTree
	return AllPairs(ix, func(s, d core.NodeID) []core.Path {
		var out []core.Path
		for _, seq := range t.from(ix, s, core.WildcardSlice).shortestPaths(d, opt.maxPaths()) {
			out = append(out, pathFromNodes(ix, seq, core.WildcardSlice, float64(weight(ix, seq))))
		}
		sortPaths(out)
		return out
	})
}

// bottleneck returns the fewest parallel static circuits on any hop of seq.
func bottleneck(ix *core.ConnIndex, seq []core.NodeID) int {
	fewest := 1 << 30
	for i := 0; i+1 < len(seq); i++ {
		n := 0
		for _, c := range ix.Circuits(seq[i], core.WildcardSlice) {
			if p, _, _ := c.Other(seq[i]); p == seq[i+1] {
				n++
			}
		}
		fewest = min(fewest, n)
	}
	return fewest
}

// KSP materializes k-shortest-path routing (Flat-tree style) using Yen's
// algorithm over the topology instance. Unlike ECMP it also returns paths
// longer than the shortest, which keeps irregular topologies well utilized.
func KSP(ix *core.ConnIndex, k int, opt Options) []core.Path {
	k = max(k, 1)
	var t hopTree
	return AllPairs(ix, func(s, d core.NodeID) []core.Path {
		var out []core.Path
		for _, seq := range yen(t.from(ix, s, core.WildcardSlice), d, k) {
			out = append(out, pathFromNodes(ix, seq, core.WildcardSlice, 1))
		}
		return out
	})
}

// yen computes up to k loopless shortest paths (by hop count) from t's
// source to d. Candidates of equal length rank by their node IDs.
func yen(t *hopTree, d core.NodeID, k int) [][]core.NodeID {
	first := t.shortestPaths(d, 1)
	if len(first) == 0 {
		return nil
	}
	paths := [][]core.NodeID{first[0]}
	var candidates [][]core.NodeID
	var banned [][2]core.NodeID
	for len(paths) < k {
		prev := paths[len(paths)-1]
		for i := 0; i < len(prev)-1; i++ {
			root := prev[:i+1]
			banned = banned[:0]
			for _, p := range paths {
				if len(p) > i && slices.Equal(p[:i+1], root) {
					banned = append(banned, [2]core.NodeID{p[i], p[i+1]})
				}
			}
			spurPath := t.bfsRestricted(prev[i], d, banned, prev[:i])
			if spurPath == nil {
				continue
			}
			total := slices.Concat(prev[:i], spurPath)
			same := func(p []core.NodeID) bool { return slices.Equal(p, total) }
			if !slices.ContainsFunc(paths, same) && !slices.ContainsFunc(candidates, same) {
				candidates = append(candidates, total)
			}
		}
		if len(candidates) == 0 {
			break
		}
		slices.SortFunc(candidates, func(a, b []core.NodeID) int {
			return cmp.Or(cmp.Compare(len(a), len(b)), slices.Compare(a, b))
		})
		paths = append(paths, candidates[0])
		candidates = candidates[1:]
	}
	return paths
}
