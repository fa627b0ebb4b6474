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

	conn       []map[int]int // per-slice port connection table
	staticConn map[int]int   // wildcard-slice (TA) connections

	// CutThroughDelay models the emulating device's cut-through
	// forwarding latency.
	CutThroughDelay int64
	// Guard is the reconfiguration guardband at the start of each slice;
	// packets arriving within it are dropped.
	Guard int64
	// ClockOffset shifts this fabric's view of the slice clock, modeling
	// synchronization error against the optical controller.
	ClockOffset int64
	// ReconfDelay is the device-class circuit re-setup time applied when
	// a *static* (TA) topology is re-deployed mid-run: packets entering
	// during the blackout drop, as on a real MEMS switch.
	ReconfDelay int64
	blockUntil  int64

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
	// fabric drops (guardband, blackout, no live circuit).
	Tracer *telemetry.Tracer
}

type attachKey struct {
	node core.NodeID
	port core.PortID
}

// NewOpticalFabric creates an unattached fabric. Attach endpoints, then
// ApplySchedule before traffic flows.
func NewOpticalFabric(eng *sim.Engine) *OpticalFabric {
	return &OpticalFabric{eng: eng, attached: make(map[attachKey]int), staticConn: make(map[int]int)}
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

// ApplySchedule programs the fabric's lookup table from node-level
// circuits. Every circuit endpoint must already be attached.
func (f *OpticalFabric) ApplySchedule(sched *core.Schedule) error {
	if err := sched.Validate(); err != nil {
		return fmt.Errorf("fabric: %w", err)
	}
	ns := sched.NumSlices
	if ns < 1 {
		ns = 1
	}
	conn := make([]map[int]int, ns)
	for i := range conn {
		conn[i] = make(map[int]int)
	}
	static := make(map[int]int)
	for _, c := range sched.Circuits {
		pa, okA := f.attached[attachKey{c.A, c.PortA}]
		pb, okB := f.attached[attachKey{c.B, c.PortB}]
		if !okA || !okB {
			return fmt.Errorf("fabric: circuit %v references unattached endpoint", c)
		}
		if c.Slice.IsWildcard() {
			static[pa], static[pb] = pb, pa
			continue
		}
		m := conn[int(c.Slice)%ns]
		m[pa], m[pb] = pb, pa
	}
	// A TA re-deployment on a live fabric tears circuits down and sets
	// new ones up; the device is dark for its reconfiguration delay.
	if f.sched != nil && sched.NumSlices <= 1 && f.ReconfDelay > 0 && f.eng.Now() > 0 {
		f.blockUntil = f.eng.Now() + f.ReconfDelay
	}
	f.sched = sched
	f.conn = conn
	f.staticConn = static
	return nil
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
	if f.blockUntil > 0 && f.eng.Now() < f.blockUntil {
		f.DropsGuard++ // reconfiguration blackout
		f.traceDrop(pkt, core.DropGuard)
		pkt.Free()
		return
	}
	if f.portDark(int(port)) {
		f.DropsReconfig++ // hot-swap drain window on the ingress port
		f.traceDrop(pkt, core.DropReconfig)
		pkt.Free()
		return
	}
	now := f.eng.Now() + f.ClockOffset
	ts := f.sched.SliceAt(now)
	// Guardband: reconfiguration window at the head of the slice.
	guard := f.Guard
	if guard == 0 {
		guard = int64(f.sched.Guard)
	}
	if guard > 0 && f.sched.NumSlices > 1 {
		sliceStart := now - now%int64(f.sched.SliceDuration)
		if now-sliceStart < guard {
			f.DropsGuard++
			f.traceDrop(pkt, core.DropGuard)
			pkt.Free()
			return
		}
	}
	out, ok := f.conn[int(ts)%len(f.conn)][int(port)]
	if !ok {
		out, ok = f.staticConn[int(port)]
	}
	if !ok {
		f.DropsNoCircuit++
		f.traceDrop(pkt, core.DropNoCircuit)
		pkt.Free()
		return
	}
	if f.portDark(out) {
		f.DropsReconfig++ // hot-swap drain window on the egress port
		f.traceDrop(pkt, core.DropReconfig)
		pkt.Free()
		return
	}
	f.Forwarded++
	f.eng.AfterEvent(f.CutThroughDelay, sim.ClassFabricOptical, (*opticalRelay)(f), pkt, int64(out))
}

// opticalRelay is the fabric's sim.Action for the cut-through hop: arg is
// the in-flight packet, v the fabric-side output port index resolved at
// Receive time. A defined-type cast of the fabric itself, so scheduling it
// carries no per-event state beyond the two operands.
type opticalRelay OpticalFabric

func (a *opticalRelay) RunEvent(arg any, v int64) {
	f := (*OpticalFabric)(a)
	f.ports[int(v)].SendCutThrough(f, arg.(*core.Packet))
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
