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

// Endpoint names one side of a link: a device and its local port number.
type Endpoint struct {
	Dev  Device
	Port core.PortID
}

// RunEvent implements sim.Action: deliver an in-flight packet (arg) to the
// endpoint's device. Links schedule delivery through this instead of a
// closure — one event per packet per hop makes this the hottest scheduling
// site in the simulator, and the pre-bound form allocates nothing.
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
	return &Link{eng: eng, a: a, b: b, BandwidthBps: bandwidthBps, PropDelay: propDelayNs}
}

// SerializationDelay returns the time to put size bytes on this wire.
func (l *Link) SerializationDelay(size int32) int64 {
	return serDelay(size, l.BandwidthBps)
}

func serDelay(size int32, bps int64) int64 {
	return int64(size) * 8 * 1e9 / bps
}

// Send transmits pkt from the `from` device toward the other side. The
// wire enforces FIFO line-rate serialization per direction, so senders
// that overrun the line rate are naturally queued on the wire clock.
func (l *Link) Send(from Device, pkt *core.Packet) { l.send(from, pkt, false) }

// SendCutThrough transmits without adding a serialization delay to the
// arrival time (the bits are already streaming — the sender is a bufferless
// waveguide relaying an in-flight packet). The wire is still reserved for
// the full serialization time so line rate is never exceeded.
func (l *Link) SendCutThrough(from Device, pkt *core.Packet) { l.send(from, pkt, true) }

func (l *Link) send(from Device, pkt *core.Packet, cutThrough bool) {
	ser := l.SerializationDelay(pkt.Size)
	now := l.eng.Now()
	var to *Endpoint
	var free *int64
	switch from {
	case l.a.Dev:
		to, free = &l.b, &l.freeAB
		l.SentAB++
		l.BytesAB += uint64(pkt.Size)
	case l.b.Dev:
		to, free = &l.a, &l.freeBA
		l.SentBA++
		l.BytesBA += uint64(pkt.Size)
	default:
		panic("fabric: Send from a device not on this link")
	}
	start := now
	if *free > start {
		start = *free
	}
	*free = start + ser
	arrive := start + ser + l.PropDelay
	if cutThrough {
		arrive = start + l.PropDelay
	}
	l.eng.AtEvent(arrive, sim.ClassLinkDeliver, to, pkt, 0)
}

// Other returns the endpoint opposite to the given device.
func (l *Link) Other(d Device) Endpoint {
	if d == l.a.Dev {
		return l.b
	}
	return l.a
}
