package engineobs

import (
	"fmt"
	"io"
	"strings"
)

// Text renderers for the two `ooctl engine` views. All output is derived
// from the Report's ordered slices only, so rendering the same report
// twice is byte-identical.

// RenderChains writes the causality view: top chains, the scheduling-edge
// table, same-instant adjacency, and the merge verdicts.
func RenderChains(w io.Writer, r *Report) {
	fmt.Fprintf(w, "engine causality  events=%d packets=%d events/packet=%.2f\n",
		r.Events, r.Packets, r.EventsPerPacket)
	if r.Ledger == nil {
		fmt.Fprintln(w, "no ledger section (run with -engine-ledger)")
		return
	}
	l := r.Ledger
	fmt.Fprintf(w, "chain sampling: every %d roots (%d started, %d finalized)\n",
		l.SampleEvery, l.ChainsStarted, l.ChainsFinalized)

	if len(l.Chains) > 0 {
		fmt.Fprintf(w, "\ntop chains (first-child signatures)\n")
		for _, c := range l.Chains {
			fmt.Fprintf(w, "  %8d  %s\n", c.Count, strings.Join(c.Chain, " -> "))
		}
	}

	fmt.Fprintf(w, "\nscheduling edges (parent -> child)\n")
	fmt.Fprintf(w, "  %-16s %-16s %10s %12s %10s %10s %10s\n",
		"parent", "child", "count", "same-inst", "min ns", "mean ns", "max ns")
	for _, e := range l.Edges {
		fmt.Fprintf(w, "  %-16s %-16s %10d %12d %10d %10.1f %10d\n",
			e.Parent, e.Child, e.Count, e.SameInstant, e.MinDelayNs, e.MeanDelayNs, e.MaxDelayNs)
	}

	if len(l.Adjacent) > 0 {
		fmt.Fprintf(w, "\nsame-instant adjacent dispatch pairs\n")
		for _, a := range l.Adjacent {
			fmt.Fprintf(w, "  %-16s -> %-16s %10d\n", a.Prev, a.Next, a.Count)
		}
	}

	fmt.Fprintf(w, "\nmergeable edges\n")
	if len(l.Mergeable) == 0 {
		fmt.Fprintln(w, "  none (no edge has a deterministic delay and a sole-child parent)")
	}
	for _, m := range l.Mergeable {
		fmt.Fprintf(w, "  %-16s -> %-16s %-12s saves %10d events (child-share %.4f, sole-rate %.4f)\n",
			m.Parent, m.Child, m.Kind, m.EventsSaved, m.ChildShare, m.SoleRate)
		if m.Note != "" {
			fmt.Fprintf(w, "      %s\n", m.Note)
		}
	}
	fmt.Fprintf(w, "total events saved if merged: %d (%.2f/packet of %.2f events/packet)\n",
		l.EventsSaved, l.EventsSavedPerPacket, r.EventsPerPacket)
}

// RenderPressure writes the scheduler-pressure and pool view.
func RenderPressure(w io.Writer, r *Report) {
	fmt.Fprintf(w, "engine pressure  events=%d packets=%d events/packet=%.2f\n",
		r.Events, r.Packets, r.EventsPerPacket)
	if r.Pressure == nil {
		fmt.Fprintln(w, "no pressure section")
		return
	}
	p := r.Pressure
	fmt.Fprintf(w, "\nresidency: pending=%d wheel=%d overflow=%d (max wheel=%d overflow=%d)\n",
		p.PendingEvents, p.WheelEvents, p.OverflowEvents, p.MaxWheelEvents, p.MaxOverflowEvents)
	fmt.Fprintf(w, "storage:   slab=%d free=%d\n", p.SlabCap, p.FreeSlots)
	pushes := p.InlinePushes + p.SpillPushes + p.OverflowPushes
	inPct, spPct, ovPct := 0.0, 0.0, 0.0
	if pushes > 0 {
		inPct = 100 * float64(p.InlinePushes) / float64(pushes)
		spPct = 100 * float64(p.SpillPushes) / float64(pushes)
		ovPct = 100 * float64(p.OverflowPushes) / float64(pushes)
	}
	fmt.Fprintf(w, "pushes:    inline=%d (%.2f%%) spill=%d (%.2f%%) overflow=%d (%.2f%%)\n",
		p.InlinePushes, inPct, p.SpillPushes, spPct, p.OverflowPushes, ovPct)
	fmt.Fprintf(w, "sorts:     resorts=%d\n", p.Resorts)

	if r.Pool != nil {
		pl := r.Pool
		fmt.Fprintf(w, "\npacket pool: gets=%d puts=%d outstanding=%d high-water=%d slabs=%d grows=%d free=%d\n",
			pl.Gets, pl.Puts, pl.Outstanding, pl.HighWater, pl.Slabs, pl.Grows, pl.FreeLen)
	}
}
