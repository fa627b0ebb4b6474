package openoptics

import (
	"fmt"

	"openoptics/internal/core"
)

// This file implements the mid-run reprogramming every adaptive
// architecture builds on (the TA control loops of internal/arch and the
// demand-aware control plane of internal/demand): Net.Reprogram compiles
// the schedule and the routing against it whole, then installs both in
// one virtual instant, so no packet observes an intermediate state; with
// an explicit reconfiguration-cost model: fabric ports whose circuits
// changed go dark for a drain window during which they carry no traffic.

// ReprogramPlan is one epoch's full program: the circuit schedule plus the
// routing compiled against it. NumSlices zero keeps the deployed cycle
// length (the cycle length is fixed once the network has started).
type ReprogramPlan struct {
	Circuits  []core.Circuit
	NumSlices int
	Paths     []core.Path
	Lookup    core.LookupMode
	Multipath core.MultipathMode
}

// ReconfigCost models what a hot-swap costs the data plane.
type ReconfigCost struct {
	// DrainNs is the dark window: fabric ports whose circuits changed drop
	// packets (DropReconfig) for this long after the swap, modeling the
	// drain/guard slices during which affected circuits are retuned.
	// Unaffected ports forward normally throughout. Zero applies the swap
	// for free (idealized reconfiguration).
	DrainNs int64
}

// Reprogram hot-swaps the deployed schedule and routing in one virtual
// instant. The whole plan is checked and compiled before anything is
// installed, so a rejected plan changes nothing and counts nothing: the
// network always runs a complete, validated program. A swap that changes
// no circuit still replaces the routing and counts as a reconfiguration,
// but darkens no ports.
func (n *Net) Reprogram(plan ReprogramPlan, cost ReconfigCost) error {
	if plan.NumSlices <= 0 {
		plan.NumSlices = n.sched.NumSlices
	}
	p, err := n.compileTopo(plan.Circuits, plan.NumSlices)
	if err != nil {
		return fmt.Errorf("openoptics: reprogram topo: %w", err)
	}
	if p.routing, err = n.compileRouting(p.ix, plan.Paths, plan.Lookup, plan.Multipath); err != nil {
		return fmt.Errorf("openoptics: reprogram routing: %w", err)
	}
	changed := core.DiffCircuits(n.sched.Circuits, plan.Circuits)
	n.install(p)
	if cost.DrainNs > 0 && n.started && len(changed) > 0 {
		ports := make([]int, 0, 2*len(changed))
		for _, c := range changed {
			if fp, ok := n.optical.PortOf(c.A, c.PortA); ok {
				ports = append(ports, fp)
			}
			if fp, ok := n.optical.PortOf(c.B, c.PortB); ok {
				ports = append(ports, fp)
			}
		}
		n.optical.SetDark(ports, n.eng.Now()+cost.DrainNs)
	}
	n.epoch++
	n.reconfigs++
	n.lastReprogramNs = n.eng.Now()
	return nil
}

// Epoch returns the current scheduling epoch: the number of hot-swaps
// applied, 0 until the first Reprogram.
func (n *Net) Epoch() int { return n.epoch }

// Reconfigs returns the cumulative hot-swap count (the oo_reconfig_total
// metric's source).
func (n *Net) Reconfigs() uint64 { return n.reconfigs }

// LastReprogramNs returns the virtual time of the most recent hot-swap
// (0 if none happened yet).
func (n *Net) LastReprogramNs() int64 { return n.lastReprogramNs }
