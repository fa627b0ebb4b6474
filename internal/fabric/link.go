// Package fabric models the network substrate devices attach to: wire
// links with serialization and propagation, the emulated optical fabric
// (§5.3) — a single logical OCS realized as a slice-indexed lookup table
// with cut-through forwarding and reconfiguration guardbands — and an
// electrical packet-switched fabric used by Clos baselines and hybrid
// architectures.
package fabric

import (
	"fmt"

	"openoptics/internal/core"
	"openoptics/internal/sim"
)

// Device is anything that can receive packets from a link: switches,
// hosts, and fabrics all implement it.
type Device interface {
	// Receive is invoked by the simulator when a packet fully arrives at
	// the device on the given local port.
	Receive(pkt *core.Packet, port core.PortID)
}

// Pipelined is implemented by a device whose Receive only starts a fixed
// ingress pipeline: stage runs delay ns after the packet's arrival, under
// class, with the packet as its operand and the receiving port as its
// scalar. A link wired to such a device schedules the stage itself, at
// arrival + delay, so a hop costs one event instead of a delivery event
// whose only job is to schedule the stage. Devices whose drop decisions
// must see arrival-time state (the optical fabric) do not implement it.
type Pipelined interface {
	Pipeline() (delay int64, class sim.Class, stage sim.Action)
}

// Endpoint names one side of a link: a device and its local port number.
type Endpoint struct {
	Dev  Device
	Port core.PortID
}

// RunEvent implements sim.Action: deliver an in-flight packet (arg) to the
// endpoint's device. Links schedule delivery through this, at arrival,
// for devices that are not Pipelined (hosts, the optical fabric); the
// pre-bound form allocates nothing.
func (ep *Endpoint) RunEvent(arg any, _ int64) {
	ep.Dev.Receive(arg.(*core.Packet), ep.Port)
}

// Link is a full-duplex wire between two endpoints. Each direction
// serializes packets FIFO at the link bandwidth and delivers them after
// the propagation delay, which is how the simulator realizes the
// switch-to-switch delay components measured in Fig. 11 (serialization +
// on-wire propagation; pipeline latency belongs to the devices).
type Link struct {
	eng  *sim.Engine
	a, b Endpoint
	// pa and pb are the ingress pipelines of a's and b's devices, resolved
	// when the link is wired; nil for a device that is not Pipelined.
	pa, pb Pipelined

	// BandwidthBps is the line rate in bits per second.
	BandwidthBps int64
	// PropDelay is the one-way propagation delay in nanoseconds.
	PropDelay int64

	freeAB int64 // next time the A->B direction can begin serializing
	freeBA int64

	// Stats
	SentAB, SentBA   uint64
	BytesAB, BytesBA uint64
}

// NewLink wires two endpoints with the given line rate and propagation
// delay. Both devices must outlive the link.
func NewLink(eng *sim.Engine, a, b Endpoint, bandwidthBps int64, propDelayNs int64) *Link {
	if bandwidthBps <= 0 {
		panic(fmt.Sprintf("fabric: non-positive bandwidth %d", bandwidthBps))
	}
	pa, _ := a.Dev.(Pipelined)
	pb, _ := b.Dev.(Pipelined)
	return &Link{eng: eng, a: a, b: b, pa: pa, pb: pb, BandwidthBps: bandwidthBps, PropDelay: propDelayNs}
}

// SerializationDelay returns the time to put size bytes on this wire.
func (l *Link) SerializationDelay(size int32) int64 {
	return int64(size) * 8 * 1e9 / l.BandwidthBps
}

// Send transmits pkt from the `from` device toward the other side; ser is
// its SerializationDelay, which the sender already computed to time its
// own transmit completion. The wire enforces FIFO line-rate serialization
// per direction, so senders that overrun the line rate are naturally
// queued on the wire clock.
func (l *Link) Send(from Device, pkt *core.Packet, ser int64) {
	l.send(from, pkt, l.eng.Now(), ser, false)
}

// sendCutThrough transmits a packet a bufferless waveguide relays from
// time at (>= now) on: the bits are already streaming, so the arrival time
// adds no serialization delay, but the wire is still reserved for the
// full serialization time so line rate is never exceeded.
func (l *Link) sendCutThrough(from Device, pkt *core.Packet, at int64) {
	l.send(from, pkt, at, l.SerializationDelay(pkt.Size), true)
}

func (l *Link) send(from Device, pkt *core.Packet, at, ser int64, cutThrough bool) {
	var to *Endpoint
	var pipe Pipelined
	var free *int64
	switch from {
	case l.a.Dev:
		to, pipe, free = &l.b, l.pb, &l.freeAB
		l.SentAB++
		l.BytesAB += uint64(pkt.Size)
	case l.b.Dev:
		to, pipe, free = &l.a, l.pa, &l.freeBA
		l.SentBA++
		l.BytesBA += uint64(pkt.Size)
	default:
		panic("fabric: Send from a device not on this link")
	}
	start := max(at, *free)
	*free = start + ser
	arrive := start + ser + l.PropDelay
	if cutThrough {
		arrive = start + l.PropDelay
	}
	if pipe != nil {
		d, class, stage := pipe.Pipeline()
		l.eng.AtEvent(arrive+d, class, stage, pkt, int64(to.Port))
		return
	}
	l.eng.AtEvent(arrive, sim.ClassLinkDeliver, to, pkt, 0)
}
