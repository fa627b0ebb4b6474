package topo

import (
	"openoptics/internal/core"
)

// This file provides the graph-quality checks Opera-class schedules rely
// on: every slice's topology must be connected (so always-available
// multi-hop paths exist) and ideally a good expander (so those paths are
// short). The controller does not enforce these — they are analysis tools
// for schedule designers and the test suite.

// SliceGraph summarizes one slice's topology quality.
type SliceGraph struct {
	Slice     core.Slice
	Nodes     int
	Edges     int
	Connected bool
	Diameter  int // hop diameter; -1 if disconnected
	// MinDegree and MaxDegree bound the regularity.
	MinDegree int
	MaxDegree int
}

// AnalyzeSlices computes per-slice graph quality for a schedule. Static
// (wildcard) circuits count in every slice.
func AnalyzeSlices(sched *core.Schedule) []SliceGraph {
	ix := core.NewConnIndex(sched)
	nodes := ix.Nodes()
	ns := sched.NumSlices
	if ns < 1 {
		ns = 1
	}
	out := make([]SliceGraph, 0, ns)
	for ts := 0; ts < ns; ts++ {
		sg := SliceGraph{Slice: core.Slice(ts), Nodes: len(nodes), MinDegree: 1 << 30}
		edges := make(map[[2]core.NodeID]bool)
		for _, n := range nodes {
			peers := ix.Neighbors(n, core.Slice(ts))
			deg := len(peers)
			if deg < sg.MinDegree {
				sg.MinDegree = deg
			}
			if deg > sg.MaxDegree {
				sg.MaxDegree = deg
			}
			for _, p := range peers {
				a, b := n, p
				if a > b {
					a, b = b, a
				}
				edges[[2]core.NodeID{a, b}] = true
			}
		}
		sg.Edges = len(edges)
		sg.Connected, sg.Diameter = diameter(ix, nodes, core.Slice(ts))
		if sg.MinDegree == 1<<30 {
			sg.MinDegree = 0
		}
		out = append(out, sg)
	}
	return out
}

// diameter runs BFS from every node over one slice's graph.
func diameter(ix *core.ConnIndex, nodes []core.NodeID, ts core.Slice) (bool, int) {
	maxEcc := int32(0)
	var dist, queue []int32
	for _, src := range nodes {
		dist, queue = ix.HopDistances(src, ts, dist, queue)
		for _, d := range dist {
			if d < 0 {
				return false, -1
			}
			maxEcc = max(maxEcc, d)
		}
	}
	return true, int(maxEcc)
}

// AllSlicesConnected reports whether every slice topology is connected —
// the precondition for Opera's always-available in-slice paths.
func AllSlicesConnected(sched *core.Schedule) bool {
	for _, sg := range AnalyzeSlices(sched) {
		if !sg.Connected {
			return false
		}
	}
	return true
}

// TemporalReach returns after how many slices, starting from ts, node src
// can have reached every other node using at most maxHopsPerSlice in-slice
// hops — the "diversify connectivity over time" property of TO cycles
// (§2.1). Returns -1 if the horizon (two cycles) is exhausted first.
func TemporalReach(sched *core.Schedule, src core.NodeID, ts core.Slice, maxHopsPerSlice int) int {
	ix := core.NewConnIndex(sched)
	nodes := ix.Nodes()
	ns := sched.NumSlices
	if ns < 1 {
		ns = 1
	}
	reached := map[core.NodeID]bool{src: true}
	for off := 0; off < 2*ns; off++ {
		cur := core.Slice((int(ts) + off) % ns)
		// Expand within the slice up to maxHopsPerSlice hops from any
		// already-reached node.
		frontier := make([]core.NodeID, 0, len(reached))
		for n := range reached {
			frontier = append(frontier, n)
		}
		for hop := 0; hop < maxHopsPerSlice; hop++ {
			var next []core.NodeID
			for _, n := range frontier {
				for _, p := range ix.Neighbors(n, cur) {
					if !reached[p] {
						reached[p] = true
						next = append(next, p)
					}
				}
			}
			if len(next) == 0 {
				break
			}
			frontier = next
		}
		if len(reached) == len(nodes) {
			return off + 1
		}
	}
	return -1
}
