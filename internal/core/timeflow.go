package core

import (
	"cmp"
	"fmt"
	"slices"
)

// This file implements the time-flow table (§3) — the paper's central
// abstraction. A time-flow table is a flow table whose match side gains an
// *arrival time slice* field (Req. 1: determine which slice a packet arrived
// in and map it to the right path) and whose action side gains a *departure
// time slice* field (Req. 2: buffer the packet until the slice in which its
// circuit is up). With both time fields set to wildcards it degenerates to a
// classic flow table, which is how TA architectures and static DCNs are
// supported on the same device pipeline.

// LookupMode selects how deploy_routing compiles paths into entries:
// per-hop lookup installs one entry at every hop; source routing installs a
// single entry at the source whose action carries the entire hop sequence.
type LookupMode uint8

const (
	// LookupHop compiles paths into per-hop table entries (Fig. 3 (b)).
	LookupHop LookupMode = iota
	// LookupSource compiles paths into source-routing entries that embed
	// the full <egress port, departure slice> sequence (Fig. 3 (d)).
	LookupSource
)

func (m LookupMode) String() string {
	switch m {
	case LookupHop:
		return "hop"
	case LookupSource:
		return "source"
	}
	return fmt.Sprintf("LookupMode(%d)", uint8(m))
}

// MultipathMode selects the optional path-hashing field (§3): per-packet
// hashing (ingress timestamp / on-chip RNG) sprays packets over the action
// group; per-flow hashing (five-tuple) pins each flow to one action.
type MultipathMode uint8

const (
	// MultipathNone disables the hashing field; the first action is used.
	MultipathNone MultipathMode = iota
	// MultipathPacket selects an action per packet (timestamp/RNG hash).
	MultipathPacket
	// MultipathFlow selects an action per flow (five-tuple hash).
	MultipathFlow
)

func (m MultipathMode) String() string {
	switch m {
	case MultipathNone:
		return "none"
	case MultipathPacket:
		return "packet"
	case MultipathFlow:
		return "flow"
	}
	return fmt.Sprintf("MultipathMode(%d)", uint8(m))
}

// SRHop is one element of a source route: egress port and departure slice
// for one downstream node, written into the packet at the source (Fig. 3 d).
type SRHop struct {
	Egress   PortID
	DepSlice Slice
}

// Match is the match side of a time-flow table entry. Any field may be a
// wildcard (NoNode / WildcardSlice). ArrSlice is interpreted modulo the
// schedule's cycle length.
type Match struct {
	ArrSlice Slice  // arrival time slice, WildcardSlice = any (Req. 1)
	Src      NodeID // source endpoint node, NoNode = any
	Dst      NodeID // destination endpoint node, NoNode = any
}

// Wildcards reports how many of the three match fields are wildcards; fewer
// wildcards means a more specific entry.
func (m Match) Wildcards() int {
	n := 0
	if m.ArrSlice.IsWildcard() {
		n++
	}
	if m.Src == NoNode {
		n++
	}
	if m.Dst == NoNode {
		n++
	}
	return n
}

// Covers reports whether the match accepts a packet with the given concrete
// arrival slice and src/dst nodes.
func (m Match) Covers(arr Slice, src, dst NodeID) bool {
	if !m.ArrSlice.IsWildcard() && m.ArrSlice != arr {
		return false
	}
	if m.Src != NoNode && m.Src != src {
		return false
	}
	if m.Dst != NoNode && m.Dst != dst {
		return false
	}
	return true
}

// Action is the action side of a time-flow table entry: forward out of
// Egress in slice DepSlice (wildcard = immediately). If SourceRoute is
// non-nil the entry is a source-routing entry: SourceRoute[0] applies at
// this node and the remainder is written into the packet header for the
// downstream hops. Weight carries the share for weighted multipath.
type Action struct {
	Egress      PortID
	DepSlice    Slice
	SourceRoute []SRHop
	Weight      float64
}

// Entry is one time-flow table entry. Higher Priority wins; ties are broken
// by specificity (fewer wildcards), then insertion order.
type Entry struct {
	Priority int
	Match    Match
	seq      int32    // insertion order, assigned by Table.Add
	Actions  []Action // len > 1 forms a multipath group
	Mode     MultipathMode

	// cum is the weighted-multipath state precomputed by Table.Add so
	// selectAction does not walk the action weights on every packet:
	// cum[i] is the cumulative weight through Actions[i], and the last
	// element the total (nil when the group is unweighted — all weights
	// are 1 or unset — and plain modulo hashing applies).
	cum []float64
}

// Table is a time-flow table instance as installed on one endpoint node
// (switch or NIC). Add appends; the first Lookup after a change compiles
// the entries into a dense index (tableIndex), after which a lookup is a
// fixed number of array reads — the software counterpart of the
// single-pass match a TCAM or the Tofino2 pipeline performs.
//
// Table is not safe for concurrent use; devices own their tables and
// the controller deploys via the device's serialized event loop.
type Table struct {
	// entries holds every installed entry: best-first up to the last
	// compile, later additions appended.
	entries []*Entry
	seq     int32
	built   bool // ix reflects entries
	ix      tableIndex
}

// NewTable returns an empty time-flow table.
func NewTable() *Table { return &Table{} }

// Len returns the number of installed entries.
func (t *Table) Len() int { return len(t.entries) }

// Add validates and installs an entry.
func (t *Table) Add(e Entry) error {
	if len(e.Actions) == 0 {
		return fmt.Errorf("timeflow: entry has no actions")
	}
	for i, a := range e.Actions {
		if a.Egress == NoPort && len(a.SourceRoute) == 0 {
			return fmt.Errorf("timeflow: action %d has neither egress port nor source route", i)
		}
		if a.Weight < 0 {
			return fmt.Errorf("timeflow: action %d has negative weight %g", i, a.Weight)
		}
		if len(a.SourceRoute) > 0 && (a.SourceRoute[0].Egress != a.Egress || a.SourceRoute[0].DepSlice != a.DepSlice) {
			return fmt.Errorf("timeflow: action %d source route head %v disagrees with action (%d,%d)",
				i, a.SourceRoute[0], a.Egress, a.DepSlice)
		}
	}
	if len(e.Actions) > 1 && e.Mode == MultipathNone {
		return fmt.Errorf("timeflow: %d actions but multipath mode none", len(e.Actions))
	}
	e.seq = t.seq
	e.precomputeWeights()
	t.seq++
	t.entries = append(t.entries, &e)
	t.built = false
	return nil
}

// precomputeWeights fills the entry's cumulative-weight table for weighted
// multipath groups. The summation order matches the per-lookup walk the
// seed performed, so selection stays bit-identical.
func (e *Entry) precomputeWeights() {
	e.cum = nil
	if len(e.Actions) <= 1 {
		return
	}
	weighted := false
	for _, a := range e.Actions {
		if a.Weight > 0 && a.Weight != 1 {
			weighted = true
			break
		}
	}
	if !weighted {
		return
	}
	e.cum = make([]float64, len(e.Actions))
	var cum float64
	for i, a := range e.Actions {
		w := a.Weight
		if w <= 0 {
			w = 1
		}
		cum += w
		e.cum[i] = cum
	}
}

// compareEntries orders entries best-first: priority descending, then
// fewer wildcards, then insertion order.
func compareEntries(a, b *Entry) int {
	if a.Priority != b.Priority {
		return cmp.Compare(b.Priority, a.Priority)
	}
	if wa, wb := a.Match.Wildcards(), b.Match.Wildcards(); wa != wb {
		return wa - wb
	}
	return cmp.Compare(a.seq, b.seq)
}

// sort puts the entries best-first. Compiled tables are added in that
// order already, which the sort recognizes in one pass.
func (t *Table) sort() { slices.SortFunc(t.entries, compareEntries) }

// LookupResult is the outcome of a time-flow table lookup for one packet.
type LookupResult struct {
	Egress      PortID
	DepSlice    Slice // WildcardSlice = depart immediately (rank 0)
	SourceRoute []SRHop
	Entry       *Entry // the matched entry (for telemetry)
}

// Lookup finds the best entry for a packet arriving in slice arr with the
// given endpoint src/dst, and selects one action from the entry's group
// using pktHash (per-packet multipath) or flowHash (per-flow multipath).
// ok is false if no entry matches — the packet has no route.
func (t *Table) Lookup(arr Slice, src, dst NodeID, pktHash, flowHash uint64) (LookupResult, bool) {
	if !t.built {
		t.compile()
	}
	c := t.ix.find(arr, src, dst)
	switch {
	case c.e == nil:
		return LookupResult{}, false
	case c.single:
		return LookupResult{Egress: c.egress, DepSlice: c.dep, Entry: c.e}, true
	}
	a := selectAction(c.e, pktHash, flowHash)
	return LookupResult{Egress: a.Egress, DepSlice: a.DepSlice, SourceRoute: a.SourceRoute, Entry: c.e}, true
}

// selectAction picks an action from a multipath group. Weighted groups use
// weighted hashing so the long-run traffic split honors action weights;
// the cumulative weights were precomputed at Add time.
func selectAction(e *Entry, pktHash, flowHash uint64) Action {
	if len(e.Actions) == 1 {
		return e.Actions[0]
	}
	var h uint64
	switch e.Mode {
	case MultipathPacket:
		h = pktHash
	case MultipathFlow:
		h = flowHash
	default:
		return e.Actions[0]
	}
	if e.cum == nil {
		return e.Actions[h%uint64(len(e.Actions))]
	}
	// Map the hash to [0, total) and walk the cumulative weights.
	x := float64(h%1000003) / 1000003 * e.cum[len(e.cum)-1]
	for i, c := range e.cum {
		if x < c {
			return e.Actions[i]
		}
	}
	return e.Actions[len(e.Actions)-1]
}

// Entries returns a snapshot of all entries best-first, for dumping and
// resource accounting. The returned entries must not be mutated.
func (t *Table) Entries() []*Entry {
	t.sort()
	return slices.Clone(t.entries)
}
