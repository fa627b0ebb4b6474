// Package core defines the shared vocabulary of OpenOptics: endpoint nodes,
// optical circuits, time slices, routing paths, traffic matrices, and the
// time-flow table abstraction that forms the "narrow waist" between optical
// hardware below and routing software above.
//
// Everything in this package is hardware-independent. Devices (switches,
// hosts, fabrics) consume these types; algorithms (topology generation,
// routing) produce them.
package core

import (
	"fmt"
	"time"
)

// NodeID identifies an electrical communication endpoint attached to the
// optical fabric: a ToR switch, a pod switch, or a host NIC, depending on
// whether the deployment is switch-centric or host-centric.
type NodeID int32

// NoNode is the zero-value-adjacent sentinel for "no node" / wildcard.
const NoNode NodeID = -1

// PortID identifies a port on a node or OCS. Optical uplinks on a node are
// numbered 0..Uplinks-1; downlinks (to hosts) follow.
type PortID int16

// NoPort is the sentinel for an unspecified port.
const NoPort PortID = -1

// HostID identifies a host (server NIC) hanging off a ToR node.
type HostID int32

// NoHost is the sentinel for an unspecified host.
const NoHost HostID = -1

// Slice is a time-slice index within the optical schedule's cycle.
// WildcardSlice matches or means "any slice" — it is what makes the
// time-flow table backward compatible with classic flow tables (§3).
type Slice int32

// WildcardSlice matches any time slice (match side) or means "depart
// immediately" (action side).
const WildcardSlice Slice = -1

// IsWildcard reports whether s is the wildcard slice.
func (s Slice) IsWildcard() bool { return s < 0 }

// Circuit is one optical circuit: an exclusive physical-layer connection
// between port PortA of node A and port PortB of node B during time slice
// Slice. A circuit with Slice == WildcardSlice is static — it persists until
// the next topology reconfiguration (the TA case).
//
// Circuits are bidirectional at the physical layer; A/B order is
// canonicalized by Canon for set operations but preserved as produced by
// topology algorithms otherwise.
type Circuit struct {
	A     NodeID
	PortA PortID
	B     NodeID
	PortB PortID
	Slice Slice
}

// Canon returns the circuit with (A,PortA) <= (B,PortB) so that equal
// circuits compare equal regardless of orientation.
func (c Circuit) Canon() Circuit {
	if c.B < c.A || (c.B == c.A && c.PortB < c.PortA) {
		c.A, c.B = c.B, c.A
		c.PortA, c.PortB = c.PortB, c.PortA
	}
	return c
}

// DiffCircuits compares two circuit sets as canonical multisets and
// returns, in canonical form and once each, the circuits whose count
// differs: those torn down plus those newly set up. It is empty exactly
// when the two sets hold the same circuits.
func DiffCircuits(old, new []Circuit) []Circuit {
	count := make(map[Circuit]int, len(old)+len(new))
	for _, c := range old {
		count[c.Canon()]++
	}
	for _, c := range new {
		count[c.Canon()]--
	}
	var out []Circuit
	for _, set := range [][]Circuit{old, new} {
		for _, c := range set {
			if count[c.Canon()] != 0 {
				out = append(out, c.Canon())
				count[c.Canon()] = 0
			}
		}
	}
	return out
}

// Other returns the far endpoint of the circuit as seen from node n and the
// port used on the far side. ok is false if n is not an endpoint.
func (c Circuit) Other(n NodeID) (peer NodeID, peerPort PortID, ok bool) {
	switch n {
	case c.A:
		return c.B, c.PortB, true
	case c.B:
		return c.A, c.PortA, true
	}
	return NoNode, NoPort, false
}

// LocalPort returns the port used on node n's side of the circuit.
func (c Circuit) LocalPort(n NodeID) (PortID, bool) {
	switch n {
	case c.A:
		return c.PortA, true
	case c.B:
		return c.PortB, true
	}
	return NoPort, false
}

func (c Circuit) String() string {
	ts := "*"
	if !c.Slice.IsWildcard() {
		ts = fmt.Sprintf("%d", c.Slice)
	}
	return fmt.Sprintf("N%d.p%d<->N%d.p%d@ts=%s", c.A, c.PortA, c.B, c.PortB, ts)
}

// Schedule is an optical schedule: the set of circuits the optical fabric
// realizes, slice by slice. TA architectures use NumSlices == 1 with all
// circuits at WildcardSlice (a single static topology instance); TO
// architectures rotate through NumSlices configurations, each held for
// SliceDuration, of which Guard nanoseconds at the start of every slice are
// the reconfiguration guardband during which no data may be in flight.
type Schedule struct {
	NumSlices     int
	SliceDuration time.Duration
	Guard         time.Duration
	Circuits      []Circuit
}

// CycleDuration returns the duration of one full optical cycle.
func (s *Schedule) CycleDuration() time.Duration {
	n := s.NumSlices
	if n < 1 {
		n = 1
	}
	return time.Duration(n) * s.SliceDuration
}

// SliceAt returns the slice index active at virtual time t (nanoseconds),
// assuming the schedule starts at t=0.
func (s *Schedule) SliceAt(t int64) Slice {
	if s.NumSlices <= 1 || s.SliceDuration <= 0 {
		return 0
	}
	sd := int64(s.SliceDuration)
	return Slice((t / sd) % int64(s.NumSlices))
}

// SliceStart returns the virtual time at which the k-th occurrence boundary
// of slice sl at or after time t begins.
func (s *Schedule) SliceStart(t int64, sl Slice) int64 {
	if s.NumSlices <= 1 || s.SliceDuration <= 0 {
		return t
	}
	sd := int64(s.SliceDuration)
	cyc := sd * int64(s.NumSlices)
	base := (t / cyc) * cyc // start of current cycle
	start := base + int64(sl)*sd
	for start < t-sd { // ensure we return current-or-future occurrence
		start += cyc
	}
	if start+sd <= t {
		start += cyc
	}
	return start
}

// SlicesUntil returns how many slice boundaries separate arrival slice a
// from departure slice d, i.e. the calendar-queue rank (§5.1). Wildcards
// rank 0 (immediate departure).
func (s *Schedule) SlicesUntil(a, d Slice) int {
	if a.IsWildcard() || d.IsWildcard() || s.NumSlices <= 1 {
		return 0
	}
	n := Slice(s.NumSlices)
	r := (d - a) % n
	if r < 0 {
		r += n
	}
	return int(r)
}

// Validate checks internal consistency: slice indices within range and no
// port used twice in the same slice on the same node (circuit exclusivity).
func (s *Schedule) Validate() error {
	if s.NumSlices < 1 {
		return fmt.Errorf("schedule: NumSlices must be >= 1, got %d", s.NumSlices)
	}
	type key struct {
		n  NodeID
		p  PortID
		ts Slice
	}
	used := make(map[key]Circuit, 2*len(s.Circuits))
	for _, c := range s.Circuits {
		if !c.Slice.IsWildcard() && int(c.Slice) >= s.NumSlices {
			return fmt.Errorf("schedule: circuit %v slice out of range [0,%d)", c, s.NumSlices)
		}
		if c.A == c.B {
			return fmt.Errorf("schedule: self-circuit %v", c)
		}
		for _, end := range []key{{c.A, c.PortA, c.Slice}, {c.B, c.PortB, c.Slice}} {
			if prev, dup := used[end]; dup && prev.Canon() != c.Canon() {
				return fmt.Errorf("schedule: port N%d.p%d used by both %v and %v in slice %d",
					end.n, end.p, prev, c, end.ts)
			}
			used[end] = c
		}
	}
	return nil
}

// Hop is one step of a routing path: at node Node, send out of port Egress
// during slice DepSlice (WildcardSlice = forward immediately on arrival).
type Hop struct {
	Node     NodeID
	Egress   PortID
	DepSlice Slice
}

func (h Hop) String() string {
	ds := "*"
	if !h.DepSlice.IsWildcard() {
		ds = fmt.Sprintf("%d", h.DepSlice)
	}
	return fmt.Sprintf("(N%d,p%d,ts=%s)", h.Node, h.Egress, ds)
}

// Path is a routing path for packets from Src to Dst that arrive at Src
// during slice TS (WildcardSlice for TA/static routing, where the path is
// valid in every slice of the current topology instance).
//
// Weight carries the traffic share for weighted multipath schemes (WCMP,
// UCMP); unweighted schemes leave it 1.
type Path struct {
	Src, Dst NodeID
	TS       Slice
	Hops     []Hop
	Weight   float64
}

// DeliverySlice returns the slice in which the packet departs the last hop
// — the earliest slice it can reach Dst (same-slice hop traversal). For
// wildcard paths it returns WildcardSlice.
func (p *Path) DeliverySlice() Slice {
	if len(p.Hops) == 0 {
		return p.TS
	}
	last := p.Hops[len(p.Hops)-1].DepSlice
	return last
}

func (p *Path) String() string {
	ts := "*"
	if !p.TS.IsWildcard() {
		ts = fmt.Sprintf("%d", p.TS)
	}
	s := fmt.Sprintf("N%d=>N%d@ts=%s:", p.Src, p.Dst, ts)
	for _, h := range p.Hops {
		s += h.String()
	}
	return s
}

// Validate checks the path is well formed: non-empty, starts at Src, and
// departure slices are defined whenever TS is (time-based paths must be
// fully scheduled).
func (p *Path) Validate() error {
	if len(p.Hops) == 0 {
		return fmt.Errorf("path %v: empty", p)
	}
	if p.Hops[0].Node != p.Src {
		return fmt.Errorf("path %v: first hop at N%d, want src N%d", p, p.Hops[0].Node, p.Src)
	}
	if !p.TS.IsWildcard() {
		for i, h := range p.Hops {
			if h.DepSlice.IsWildcard() {
				return fmt.Errorf("path %v: hop %d has wildcard departure in a time-based path", p, i)
			}
		}
	}
	if p.Weight < 0 {
		return fmt.Errorf("path %v: negative weight %g", p, p.Weight)
	}
	return nil
}
