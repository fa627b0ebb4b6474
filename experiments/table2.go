package experiments

import (
	"fmt"
	"strings"

	"openoptics/internal/controller"
	"openoptics/internal/core"
	"openoptics/internal/routing"
	"openoptics/internal/switchsim"
	"openoptics/internal/topo"
)

// Table2Result holds the Tofino2 resource-usage estimate for an
// OpenOptics-enabled ToR in the 108-ToR network (Table 2).
type Table2Result struct {
	Entries         int
	WildcardEntries int
	Usage           switchsim.ResourceUsage
	Paper           switchsim.ResourceUsage
}

// Table2 compiles the full 108-ToR time-flow table for the observed ToR —
// the Opera-style topology (six uplinks) with UCMP routing, every
// infrastructure service enabled — and runs it through the Tofino2
// resource model.
func Table2(p Params) (*Table2Result, error) {
	nodes := p.nodes(108)
	uplink := 6
	if p.Quick {
		nodes, uplink = 32, 4
	}
	circuits, numSlices, err := topo.RoundRobin(nodes, uplink)
	if err != nil {
		return nil, err
	}
	sched := &core.Schedule{NumSlices: numSlices, SliceDuration: 100_000, Circuits: circuits}
	ix := core.NewConnIndex(sched)
	// Only the observed ToR's entries matter, exactly as the paper
	// populates one representative ToR; one search per arrival slice
	// answers every destination.
	observed := core.NodeID(0)
	searches := make([]*routing.Search, numSlices)
	for ts := range searches {
		searches[ts] = routing.EarliestFrom(ix, observed, core.Slice(ts),
			routing.Options{MaxHop: 2, MaxPaths: 4})
	}
	var paths []core.Path
	for dst := core.NodeID(0); int(dst) < nodes; dst++ {
		if dst == observed {
			continue
		}
		for _, s := range searches {
			ps := s.Paths(dst)
			w := 1.0 / float64(len(ps))
			for i := range ps {
				ps[i].Weight = w
			}
			paths = append(paths, ps...)
		}
	}
	cr, err := controller.CompileRouting(sched, paths, controller.CompileOptions{
		Lookup: core.LookupSource, Multipath: core.MultipathPacket,
	})
	if err != nil {
		return nil, err
	}
	tab := cr.Tables[observed]
	entries, wild := 0, 0
	for _, e := range tab.Entries() {
		if e.Match.Wildcards() > 0 {
			wild++
		} else {
			entries++
		}
	}
	rc := switchsim.ReferenceConfig(entries)
	rc.WildcardEntries = wild
	rc.Uplinks = uplink
	res := &Table2Result{
		Entries:         entries,
		WildcardEntries: wild,
		Usage:           switchsim.EstimateResources(rc),
		Paper: switchsim.ResourceUsage{
			SRAM: 3.8, TCAM: 2.3, StatefulALU: 9.4,
			TernaryXbar: 13.8, VLIW: 5.6, ExactXbar: 7.8,
		},
	}
	return res, nil
}

func (r *Table2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2 — Tofino2 resource usage (%d exact + %d wildcard entries)\n",
		r.Entries, r.WildcardEntries)
	rows := [][]string{
		{"SRAM", pc(r.Usage.SRAM), pc(r.Paper.SRAM)},
		{"TCAM", pc(r.Usage.TCAM), pc(r.Paper.TCAM)},
		{"Stateful ALU", pc(r.Usage.StatefulALU), pc(r.Paper.StatefulALU)},
		{"Ternary Xbar", pc(r.Usage.TernaryXbar), pc(r.Paper.TernaryXbar)},
		{"VLIW Actions", pc(r.Usage.VLIW), pc(r.Paper.VLIW)},
		{"Exact Xbar", pc(r.Usage.ExactXbar), pc(r.Paper.ExactXbar)},
	}
	b.WriteString(table([]string{"resource", "measured", "paper"}, rows))
	fmt.Fprintf(&b, "max usage %.1f%% (paper: all under 13.8%%)\n", r.Usage.Max())
	return b.String()
}

func pc(v float64) string { return fmt.Sprintf("%.1f%%", v) }
