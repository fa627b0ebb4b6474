// Package engineobs turns the engine observatory's raw accumulators — the
// event-causality ledger, scheduler-pressure counters, and packet-pool
// statistics (internal/sim, internal/core) — into a deterministic JSON
// report and the analyses `ooctl engine` renders. The headline analysis is
// event-merge evidence: which parent→child scheduling edges a merged
// dispatch could eliminate, and how many events per run (and per packet)
// that saves.
package engineobs

import (
	"fmt"
	"sort"

	"openoptics/internal/core"
	"openoptics/internal/provenance"
	"openoptics/internal/sim"
)

// SchemaVersion identifies the engine-report JSON layout.
const SchemaVersion = 1

// Report is the complete engine-observatory report. Every collection is a
// slice in a defined order (never a map), so marshaling is byte-
// deterministic for identical runs.
type Report struct {
	SchemaVersion int                  `json:"schema_version"`
	Manifest      *provenance.Manifest `json:"manifest,omitempty"`

	// Events is the engine's executed-event count; Packets the pool's
	// allocation count (every packet is allocated exactly once).
	Events          uint64  `json:"events"`
	Packets         uint64  `json:"packets"`
	EventsPerPacket float64 `json:"events_per_packet"`

	Ledger   *LedgerReport      `json:"ledger,omitempty"`
	Pressure *sim.SchedPressure `json:"pressure,omitempty"`
	Pool     *PoolReport        `json:"pool,omitempty"`
}

// EventsPerPacketOf is the shared events/packet definition (0 when no
// packets were allocated).
func EventsPerPacketOf(events, packets uint64) float64 {
	if packets == 0 {
		return 0
	}
	return float64(events) / float64(packets)
}

// ClassCount is a per-class tally.
type ClassCount struct {
	Class string `json:"class"`
	Count uint64 `json:"count"`
}

// EdgeReport is one parent→child scheduling edge with delay statistics.
type EdgeReport struct {
	Parent      string  `json:"parent"`
	Child       string  `json:"child"`
	Count       uint64  `json:"count"`
	SameInstant uint64  `json:"same_instant"`
	MinDelayNs  int64   `json:"min_delay_ns"`
	MaxDelayNs  int64   `json:"max_delay_ns"`
	MeanDelayNs float64 `json:"mean_delay_ns"`
}

// AdjReport counts one same-instant adjacent dispatch pair.
type AdjReport struct {
	Prev  string `json:"prev"`
	Next  string `json:"next"`
	Count uint64 `json:"count"`
}

// FanoutReport is one class's dispatch fan-out tally.
type FanoutReport struct {
	Class string `json:"class"`
	Zero  uint64 `json:"zero"`
	One   uint64 `json:"one"`
	Many  uint64 `json:"many"`
}

// ChainReport is one sampled causality chain signature.
type ChainReport struct {
	Chain []string `json:"chain"`
	Count uint64   `json:"count"`
}

// MergeReport is one edge the merge analysis deems eliminable: the parent
// class could perform (or directly pre-schedule) the child's work, saving
// one scheduler round-trip per occurrence.
type MergeReport struct {
	Parent string `json:"parent"`
	Child  string `json:"child"`
	// Kind is "same-instant" (zero delay — the child fires at the parent's
	// own instant) or "fixed-delay" (constant offset — the parent can
	// schedule past the child directly).
	Kind        string `json:"kind"`
	EventsSaved uint64 `json:"events_saved"`
	// ChildShare is this edge's share of all children the parent class
	// schedules; SoleRate is the fraction of the parent's dispatches that
	// scheduled exactly one child. Both near 1 mean the merge needs no
	// per-site dispatch branching.
	ChildShare float64 `json:"child_share"`
	SoleRate   float64 `json:"sole_rate"`
	Note       string  `json:"note,omitempty"`
}

// LedgerReport is the causality section of the report.
type LedgerReport struct {
	SampleEvery     uint64         `json:"sample_every"`
	ChainsStarted   uint64         `json:"chains_started"`
	ChainsFinalized uint64         `json:"chains_finalized"`
	Edges           []EdgeReport   `json:"edges"`
	Adjacent        []AdjReport    `json:"adjacent_same_instant,omitempty"`
	Fanouts         []FanoutReport `json:"fanouts,omitempty"`
	Roots           []ClassCount   `json:"roots,omitempty"`
	Chains          []ChainReport  `json:"chains,omitempty"`
	Mergeable       []MergeReport  `json:"mergeable,omitempty"`
	// EventsSaved totals the mergeable edges; EventsSavedPerPacket scales
	// it by the report's packet count (0 when unknown).
	EventsSaved          uint64  `json:"events_saved"`
	EventsSavedPerPacket float64 `json:"events_saved_per_packet"`
}

// maxChainsReported bounds the chains section; chains beyond it are
// aggregated into DroppedChains so truncation is visible, not silent.
const maxChainsReported = 50

// BuildLedger converts a flushed ledger into its report section. packets
// scales the events-saved estimate (0 = unknown).
func BuildLedger(l *sim.Ledger, packets uint64) *LedgerReport {
	if l == nil {
		return nil
	}
	r := &LedgerReport{
		SampleEvery:     l.SampleEvery(),
		ChainsStarted:   l.ChainsStarted(),
		ChainsFinalized: l.ChainsFinalized(),
	}
	for _, e := range l.Edges() {
		mean := 0.0
		if e.Count > 0 {
			mean = float64(e.SumDelayNs) / float64(e.Count)
		}
		r.Edges = append(r.Edges, EdgeReport{
			Parent:      e.Parent.String(),
			Child:       e.Child.String(),
			Count:       e.Count,
			SameInstant: e.SameInstant,
			MinDelayNs:  e.MinDelayNs,
			MaxDelayNs:  e.MaxDelayNs,
			MeanDelayNs: mean,
		})
	}
	for _, a := range l.AdjacentSameInstant() {
		r.Adjacent = append(r.Adjacent, AdjReport{Prev: a.Prev.String(), Next: a.Next.String(), Count: a.Count})
	}
	for _, f := range l.Fanouts() {
		r.Fanouts = append(r.Fanouts, FanoutReport{Class: f.Class.String(), Zero: f.Zero, One: f.One, Many: f.Many})
	}
	for _, rc := range l.Roots() {
		r.Roots = append(r.Roots, ClassCount{Class: rc.Class.String(), Count: rc.Count})
	}
	chains := l.Chains()
	if len(chains) > maxChainsReported {
		chains = chains[:maxChainsReported]
	}
	for _, c := range chains {
		names := make([]string, len(c.Classes))
		for i, cl := range c.Classes {
			names[i] = cl.String()
		}
		r.Chains = append(r.Chains, ChainReport{Chain: names, Count: c.Count})
	}
	r.Mergeable = mergeAnalysis(l)
	for _, m := range r.Mergeable {
		r.EventsSaved += m.EventsSaved
	}
	r.EventsSavedPerPacket = EventsPerPacketOf(r.EventsSaved, packets)
	return r
}

// mergeAnalysis finds the eliminable edges. An edge parent→child is
// mergeable when its delay is deterministic — every occurrence same-
// instant, or a single fixed offset — so the parent's dispatch can absorb
// the child's work (or schedule the child's successor directly at the
// known offset), skipping one scheduler round-trip per occurrence. Self-
// edges are excluded: a class rescheduling itself is a timer pattern, not
// a merge candidate. ChildShare and SoleRate qualify how branch-free the
// merge is at class granularity; edges below the share floor carry a note
// that the merge needs per-call-site fusing rather than a whole-class
// rewrite. Results are ordered by events saved (descending), ties by
// class names, so the report stays deterministic.
func mergeAnalysis(l *sim.Ledger) []MergeReport {
	const shareFloor = 0.999
	fan := map[sim.Class]sim.LedgerFanout{}
	for _, f := range l.Fanouts() {
		fan[f.Class] = f
	}
	totalChildren := map[sim.Class]uint64{}
	for _, e := range l.Edges() {
		totalChildren[e.Parent] += e.Count
	}
	var out []MergeReport
	for _, e := range l.Edges() {
		if e.Count == 0 || e.Parent == e.Child || e.MinDelayNs != e.MaxDelayNs {
			continue
		}
		f := fan[e.Parent]
		disp := f.Zero + f.One + f.Many
		childShare := float64(e.Count) / float64(totalChildren[e.Parent])
		soleRate := 0.0
		if disp > 0 {
			soleRate = float64(f.One) / float64(disp)
		}
		kind := "fixed-delay"
		note := fmt.Sprintf("constant %d ns offset; parent can schedule past the child directly", e.MinDelayNs)
		if e.SameInstant == e.Count {
			kind = "same-instant"
			note = "zero delay; child work can run inline in the parent's dispatch"
		}
		if childShare < shareFloor || f.Many > 0 {
			note += fmt.Sprintf(" (needs call-site fusing: edge is %.0f%% of the parent class's children)",
				100*childShare)
		}
		out = append(out, MergeReport{
			Parent:      e.Parent.String(),
			Child:       e.Child.String(),
			Kind:        kind,
			EventsSaved: e.Count,
			ChildShare:  childShare,
			SoleRate:    soleRate,
			Note:        note,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].EventsSaved != out[j].EventsSaved {
			return out[i].EventsSaved > out[j].EventsSaved
		}
		if out[i].Parent != out[j].Parent {
			return out[i].Parent < out[j].Parent
		}
		return out[i].Child < out[j].Child
	})
	return out
}

// PoolReport mirrors core.PoolStats with JSON tags.
type PoolReport struct {
	Gets        uint64 `json:"gets"`
	Puts        uint64 `json:"puts"`
	Slabs       int    `json:"slabs"`
	Grows       uint64 `json:"grows"`
	Outstanding int    `json:"outstanding"`
	HighWater   int    `json:"high_water"`
	FreeLen     int    `json:"free_len"`
}

// BuildPool converts pool statistics into the report section.
func BuildPool(st core.PoolStats) *PoolReport {
	return &PoolReport{
		Gets:        st.Gets,
		Puts:        st.Puts,
		Slabs:       st.Slabs,
		Grows:       st.Grows,
		Outstanding: st.Outstanding,
		HighWater:   st.HighWater,
		FreeLen:     st.FreeLen,
	}
}
