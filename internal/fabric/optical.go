package fabric

import (
	"fmt"

	"openoptics/internal/core"
	"openoptics/internal/sim"
	"openoptics/internal/telemetry"
)

// OpticalFabric is the emulated optical network fabric (§5.3): it abstracts
// an arbitrary OCS structure as one logical OCS with time-based
// connectivity. Circuit on/offs are realized as a per-slice lookup table —
// packets over live circuits are forwarded cut-through; packets over
// disconnected circuits match no entry and are dropped, exactly as in the
// paper's P4 realization. The reconfiguration period at the head of every
// slice is a guardband during which all affected packets are dropped.
//
// A real OCS is bufferless, so the fabric performs no queueing; endpoint
// devices own all buffering, which is what the calendar-queue system is
// for.
type OpticalFabric struct {
	eng   *sim.Engine
	sched *core.Schedule

	ports    []*Link
	attached map[attachKey]int
	// rev is the inverse of attached, indexed by fabric port — the
	// observability plane uses it to render circuit state in node terms.
	rev []attachKey

	// table is the installed port connection table.
	table ConnTable

	// CutThroughDelay models the emulating device's cut-through
	// forwarding latency.
	CutThroughDelay int64

	// dark is the set of fabric ports whose circuits changed in the most
	// recent hot-swap (Net.Reprogram); until darkUntil, packets entering or
	// leaving through a dark port are dropped — the drain/guard window
	// during which affected circuits are being retuned and carry no
	// traffic. Unaffected ports forward normally throughout.
	dark      map[int]bool
	darkUntil int64

	// Drop counters.
	DropsGuard     uint64
	DropsNoCircuit uint64
	DropsReconfig  uint64
	Forwarded      uint64

	// Tracer, when set, flushes in-band traces of sampled packets the
	// fabric drops (guardband, hot-swap drain, no live circuit).
	Tracer *telemetry.Tracer
}

type attachKey struct {
	node core.NodeID
	port core.PortID
}

// NewOpticalFabric creates an unattached fabric. Attach endpoints, then
// Compile and Install a schedule before traffic flows.
func NewOpticalFabric(eng *sim.Engine) *OpticalFabric {
	return &OpticalFabric{eng: eng, attached: make(map[attachKey]int)}
}

// Attach plugs the optical uplink (node, nodePort) into the next free
// fabric port and returns the fabric port index. The link must have the
// fabric as one endpoint with this port index.
func (f *OpticalFabric) Attach(node core.NodeID, nodePort core.PortID, link *Link) int {
	fp := len(f.ports)
	f.ports = append(f.ports, link)
	f.attached[attachKey{node, nodePort}] = fp
	f.rev = append(f.rev, attachKey{node, nodePort})
	return fp
}

// PortOf returns the fabric port a node uplink is attached to.
func (f *OpticalFabric) PortOf(node core.NodeID, nodePort core.PortID) (int, bool) {
	fp, ok := f.attached[attachKey{node, nodePort}]
	return fp, ok
}

// ConnTable is a compiled port connection table, dense per [slice][port]:
// the fabric port a packet entering port p in slice ts leaves by is at
// ts*ports+p, or -1 for no circuit. Row slices holds the static
// (wildcard-slice) circuits, the per-port fallback of every slice.
type ConnTable struct {
	conn          []int32
	slices, ports int
}

// Compile builds the connection table of a schedule's circuits without
// touching the fabric. Every circuit endpoint must already be attached;
// the schedule itself is validated by the controller (CompileTopo).
func (f *OpticalFabric) Compile(sched *core.Schedule) (*ConnTable, error) {
	ns := max(sched.NumSlices, 1)
	np := len(f.ports)
	t := &ConnTable{conn: make([]int32, (ns+1)*np), slices: ns, ports: np}
	for i := range t.conn {
		t.conn[i] = -1
	}
	for _, c := range sched.Circuits {
		pa, okA := f.attached[attachKey{c.A, c.PortA}]
		pb, okB := f.attached[attachKey{c.B, c.PortB}]
		if !okA || !okB {
			return nil, fmt.Errorf("fabric: circuit %v references unattached endpoint", c)
		}
		row := ns
		if !c.Slice.IsWildcard() {
			row = int(c.Slice) % ns
		}
		t.conn[row*np+pa], t.conn[row*np+pb] = int32(pb), int32(pa)
	}
	return t, nil
}

// Install makes a compiled table live, read against sched's slice clock
// and guardband.
func (f *OpticalFabric) Install(sched *core.Schedule, t *ConnTable) {
	f.sched, f.table = sched, *t
}

// SetDark marks the given fabric ports dark until the given virtual time:
// the reconfiguration-cost model for mid-run hot-swaps. While dark, a port
// neither accepts nor emits packets (DropsReconfig counts both directions).
// A later call replaces the previous dark set entirely.
func (f *OpticalFabric) SetDark(ports []int, untilNs int64) {
	f.dark = make(map[int]bool, len(ports))
	for _, p := range ports {
		f.dark[p] = true
	}
	f.darkUntil = untilNs
}

// portDark reports whether the port is inside a hot-swap drain window.
func (f *OpticalFabric) portDark(port int) bool {
	return f.darkUntil > 0 && f.eng.Now() < f.darkUntil && f.dark[port]
}

// Receive implements Device: the fabric consults its lookup table for the
// current slice and forwards cut-through, or drops.
func (f *OpticalFabric) Receive(pkt *core.Packet, port core.PortID) {
	if f.sched == nil {
		f.DropsNoCircuit++
		f.traceDrop(pkt, core.DropNoCircuit)
		pkt.Free()
		return
	}
	if f.portDark(int(port)) {
		f.DropsReconfig++ // hot-swap drain window on the ingress port
		f.traceDrop(pkt, core.DropReconfig)
		pkt.Free()
		return
	}
	now := f.eng.Now()
	ts := f.sched.SliceAt(now)
	// Guardband: the schedule's reconfiguration window at the head of
	// every slice.
	if g := int64(f.sched.Guard); g > 0 && f.sched.NumSlices > 1 &&
		now%int64(f.sched.SliceDuration) < g {
		f.DropsGuard++
		f.traceDrop(pkt, core.DropGuard)
		pkt.Free()
		return
	}
	out := int32(-1)
	if t, p := &f.table, int(port); p >= 0 && p < t.ports {
		if out = t.conn[int(ts)%t.slices*t.ports+p]; out < 0 {
			out = t.conn[t.slices*t.ports+p]
		}
	}
	if out < 0 {
		f.DropsNoCircuit++
		f.traceDrop(pkt, core.DropNoCircuit)
		pkt.Free()
		return
	}
	if f.portDark(int(out)) {
		f.DropsReconfig++ // hot-swap drain window on the egress port
		f.traceDrop(pkt, core.DropReconfig)
		pkt.Free()
		return
	}
	f.Forwarded++
	// The relay needs no event of its own: the output wire is reserved now
	// for CutThroughDelay later. The fabric is the only sender on that wire
	// and the delay is constant, so reservations keep relay order.
	f.ports[out].sendCutThrough(f, pkt, f.eng.Now()+f.CutThroughDelay)
}

// traceDrop flushes a sampled packet's trace with a fabric-side drop. The
// fabric is not an endpoint node, so the end node is NoNode.
func (f *OpticalFabric) traceDrop(pkt *core.Packet, reason core.DropReason) {
	if f.Tracer != nil && pkt.Trace != nil {
		f.Tracer.Drop(pkt, reason, core.NoNode, f.eng.Now())
	}
}

// Links returns the attached fabric-side links in port order, for
// utilization export.
func (f *OpticalFabric) Links() []*Link { return f.ports }
