// Package controller implements the optical controller's compilation
// pipeline (§4.1): it sanity-checks user-provided circuits and paths,
// compiles node-level circuits into per-OCS internal connections, and
// compiles routing paths into per-node time-flow table entries —
// per-hop lookup or source routing, with packet- or flow-level multipath
// (the LOOKUP and MULTIPATH options of deploy_routing).
package controller

import (
	"fmt"
	"sort"

	"openoptics/internal/core"
)

// CompileOptions carries the deploy_routing options.
type CompileOptions struct {
	Lookup    core.LookupMode
	Multipath core.MultipathMode
	// ExternalPort marks ports that leave the optical schedule — e.g.
	// the uplink into the electrical fabric of hybrid architectures.
	// A hop out of an external port is not checked against the circuit
	// schedule; the external fabric delivers to the destination, so it
	// must be the path's final hop.
	ExternalPort func(core.NodeID, core.PortID) bool
}

// CompiledRouting is the result of compiling a path set: one time-flow
// table per endpoint node that appears in any path.
type CompiledRouting struct {
	Tables map[core.NodeID]*core.Table
	// Entries counts installed entries across all nodes (telemetry and
	// the Tofino resource model).
	Entries int
}

// CompileRouting validates paths against the schedule ix indexes and
// compiles them into time-flow tables. Every hop must traverse a circuit
// that exists in the schedule during the hop's departure slice and lead
// toward the next hop (or the destination) — the controller's sanity check
// that catches wrong routing scripts before they black-hole traffic.
func CompileRouting(ix *core.ConnIndex, paths []core.Path, opt CompileOptions) (*CompiledRouting, error) {
	for i := range paths {
		if err := paths[i].Validate(); err != nil {
			return nil, fmt.Errorf("controller: path %d: %w", i, err)
		}
		if err := checkPathFeasible(ix, &paths[i], opt.ExternalPort); err != nil {
			return nil, fmt.Errorf("controller: path %d: %w", i, err)
		}
	}
	switch opt.Lookup {
	case core.LookupHop:
		return compilePerHop(paths, opt)
	case core.LookupSource:
		return compileSourceRouting(paths, opt)
	}
	return nil, fmt.Errorf("controller: unknown lookup mode %v", opt.Lookup)
}

// checkPathFeasible walks the path across the schedule, confirming each
// hop's circuit exists and the node chain is consistent.
func checkPathFeasible(ix *core.ConnIndex, p *core.Path, external func(core.NodeID, core.PortID) bool) error {
	cur := p.Src
	for i, h := range p.Hops {
		if h.Node != cur {
			return fmt.Errorf("hop %d at N%d but packet is at N%d", i, h.Node, cur)
		}
		if external != nil && external(cur, h.Egress) {
			if i != len(p.Hops)-1 {
				return fmt.Errorf("hop %d exits into the external fabric but is not the final hop", i)
			}
			cur = p.Dst
			continue
		}
		ts := h.DepSlice
		next, ok := circuitPeer(ix, cur, h.Egress, ts)
		if !ok {
			return fmt.Errorf("hop %d: no circuit out of N%d.p%d in slice %d", i, cur, h.Egress, ts)
		}
		cur = next
	}
	if cur != p.Dst {
		return fmt.Errorf("path ends at N%d, want N%d", cur, p.Dst)
	}
	return nil
}

// circuitPeer resolves which node the circuit out of (n, port) during ts
// reaches.
func circuitPeer(ix *core.ConnIndex, n core.NodeID, port core.PortID, ts core.Slice) (core.NodeID, bool) {
	for _, c := range ix.Circuits(n, ts) {
		if lp, ok := c.LocalPort(n); ok && lp == port {
			peer, _, _ := c.Other(n)
			return peer, true
		}
	}
	return core.NoNode, false
}

// hopArrival returns the arrival slice at hop i of the path: the path's
// arrival slice for hop 0 and the previous hop's departure slice otherwise
// (in-slice circuit traversal).
func hopArrival(p *core.Path, i int) core.Slice {
	if i == 0 {
		return p.TS
	}
	return p.Hops[i-1].DepSlice
}

type matchKey struct {
	node core.NodeID
	m    core.Match
}

type actionAccum struct {
	key     matchKey
	order   int
	actions []core.Action
}

// compilePerHop decomposes paths into per-hop entries (Fig. 3 b), merging
// same-match entries at a node into multipath groups.
func compilePerHop(paths []core.Path, opt CompileOptions) (*CompiledRouting, error) {
	groups := make(map[matchKey]*actionAccum)
	var order []matchKey
	for pi := range paths {
		p := &paths[pi]
		w := p.Weight
		if w <= 0 {
			w = 1
		}
		for i, h := range p.Hops {
			k := matchKey{node: h.Node, m: core.Match{
				ArrSlice: hopArrival(p, i), Src: p.Src, Dst: p.Dst}}
			a := core.Action{Egress: h.Egress, DepSlice: h.DepSlice, Weight: w}
			acc := groups[k]
			if acc == nil {
				acc = &actionAccum{key: k, order: len(order)}
				groups[k] = acc
				order = append(order, k)
			}
			mergeAction(acc, a)
		}
	}
	return buildTables(groups, order, opt)
}

// compileSourceRouting installs a single entry per path at the source
// (Fig. 3 d) whose action carries the full hop sequence.
func compileSourceRouting(paths []core.Path, opt CompileOptions) (*CompiledRouting, error) {
	groups := make(map[matchKey]*actionAccum)
	var order []matchKey
	for pi := range paths {
		p := &paths[pi]
		w := p.Weight
		if w <= 0 {
			w = 1
		}
		sr := make([]core.SRHop, len(p.Hops))
		for i, h := range p.Hops {
			sr[i] = core.SRHop{Egress: h.Egress, DepSlice: h.DepSlice}
		}
		k := matchKey{node: p.Src, m: core.Match{ArrSlice: p.TS, Src: p.Src, Dst: p.Dst}}
		a := core.Action{Egress: sr[0].Egress, DepSlice: sr[0].DepSlice, SourceRoute: sr, Weight: w}
		acc := groups[k]
		if acc == nil {
			acc = &actionAccum{key: k, order: len(order)}
			groups[k] = acc
			order = append(order, k)
		}
		mergeAction(acc, a)
	}
	return buildTables(groups, order, opt)
}

// mergeAction adds a to the group, accumulating weight on exact duplicates.
func mergeAction(acc *actionAccum, a core.Action) {
	for i := range acc.actions {
		if sameAction(&acc.actions[i], &a) {
			acc.actions[i].Weight += a.Weight
			return
		}
	}
	acc.actions = append(acc.actions, a)
}

func sameAction(a, b *core.Action) bool {
	if a.Egress != b.Egress || a.DepSlice != b.DepSlice || len(a.SourceRoute) != len(b.SourceRoute) {
		return false
	}
	for i := range a.SourceRoute {
		if a.SourceRoute[i] != b.SourceRoute[i] {
			return false
		}
	}
	return true
}

func buildTables(groups map[matchKey]*actionAccum, order []matchKey, opt CompileOptions) (*CompiledRouting, error) {
	out := &CompiledRouting{Tables: make(map[core.NodeID]*core.Table)}
	// Deterministic install order: by node, then first-seen order.
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].node != order[j].node {
			return order[i].node < order[j].node
		}
		return groups[order[i]].order < groups[order[j]].order
	})
	for _, k := range order {
		acc := groups[k]
		mode := opt.Multipath
		if len(acc.actions) > 1 && mode == core.MultipathNone {
			return nil, fmt.Errorf(
				"controller: node N%d match %+v has %d diverging actions but MULTIPATH=none; "+
					"use packet/flow multipath or source routing", k.node, k.m, len(acc.actions))
		}
		if len(acc.actions) == 1 {
			mode = core.MultipathNone
		}
		tab := out.Tables[k.node]
		if tab == nil {
			tab = core.NewTable()
			out.Tables[k.node] = tab
		}
		if err := tab.Add(core.Entry{
			Match:   k.m,
			Actions: acc.actions,
			Mode:    mode,
		}); err != nil {
			return nil, fmt.Errorf("controller: node N%d: %w", k.node, err)
		}
		out.Entries++
	}
	return out, nil
}
