package fabric

import (
	"openoptics/internal/core"
	"openoptics/internal/sim"
	"openoptics/internal/telemetry"
)

// ElectricalFabric is a packet-switched fabric device — the testbed's
// fourth Tofino2 acting as the electrical network for the Clos baseline
// and the static side of hybrid (TA-1) architectures. It is an
// output-queued switch: packets are routed by destination endpoint node to
// the attached port and drained at line rate from a drop-tail queue.
type ElectricalFabric struct {
	eng *sim.Engine

	ports  []*elecPort
	byNode map[core.NodeID]int

	// PipelineDelay models ingress processing latency.
	PipelineDelay int64
	// QueueCapBytes bounds each output queue (drop-tail). 0 = 16 MB.
	QueueCapBytes int64

	DropsQueue   uint64
	DropsNoRoute uint64
	Forwarded    uint64

	// Tracer, when set, flushes in-band traces of sampled packets the
	// fabric drops (queue overflow, unroutable destination).
	Tracer *telemetry.Tracer
}

type elecPort struct {
	link    *Link
	fifo    core.Deque[*core.Packet]
	bytes   int64
	busy    bool
	maxSeen int64
}

// NewElectricalFabric creates an empty electrical fabric.
func NewElectricalFabric(eng *sim.Engine) *ElectricalFabric {
	return &ElectricalFabric{eng: eng, byNode: make(map[core.NodeID]int)}
}

// Attach plugs the (electrical) uplink of endpoint node `node` into the
// fabric and returns the fabric port index. Traffic destined to that node
// exits here.
func (f *ElectricalFabric) Attach(node core.NodeID, link *Link) int {
	fp := len(f.ports)
	f.ports = append(f.ports, &elecPort{link: link})
	f.byNode[node] = fp
	return fp
}

func (f *ElectricalFabric) queueCap() int64 {
	if f.QueueCapBytes > 0 {
		return f.QueueCapBytes
	}
	return 16 << 20
}

// Receive implements Device: the packet enters the ingress pipeline; its
// enqueue stage routes, enqueues and drains. Links wired to the fabric
// schedule that stage themselves (Pipeline).
func (f *ElectricalFabric) Receive(pkt *core.Packet, port core.PortID) {
	f.eng.AfterEvent(f.PipelineDelay, sim.ClassFabricElec, (*elecEnqueue)(f), pkt, int64(port))
}

// Pipeline implements Pipelined: a link delivers straight into the
// enqueue stage, PipelineDelay after the packet's arrival.
func (f *ElectricalFabric) Pipeline() (int64, sim.Class, sim.Action) {
	return f.PipelineDelay, sim.ClassFabricElec, (*elecEnqueue)(f)
}

// elecEnqueue is the post-pipeline stage as a sim.Action: arg is the
// packet (v, its ingress port, is unused). It routes by destination node —
// the table is static, so routing here decides as routing at arrival
// would — and makes the drop-tail decision at enqueue time.
type elecEnqueue ElectricalFabric

func (a *elecEnqueue) RunEvent(arg any, _ int64) {
	f := (*ElectricalFabric)(a)
	pkt := arg.(*core.Packet)
	fp, ok := f.byNode[pkt.DstNode]
	if !ok {
		f.DropsNoRoute++
		f.traceDrop(pkt, core.DropElecRoute)
		pkt.Free()
		return
	}
	p := f.ports[fp]
	if p.bytes+int64(pkt.Size) > f.queueCap() {
		f.DropsQueue++
		f.traceDrop(pkt, core.DropElecQueue)
		pkt.Free()
		return
	}
	if pkt.Trace != nil {
		// Fabric hops have no endpoint node and no slice schedule; their
		// pre-dequeue wait is attributed to plain queueing.
		pkt.Trace.AddHop(core.TraceHop{
			TimeNs:     f.eng.Now(),
			Node:       core.NoNode,
			InPort:     core.NoPort,
			Egress:     core.PortID(fp),
			ArrSlice:   core.WildcardSlice,
			DepSlice:   core.WildcardSlice,
			QueueBytes: p.bytes,
		})
	}
	p.fifo.PushBack(pkt)
	p.bytes += int64(pkt.Size)
	if p.bytes > p.maxSeen {
		p.maxSeen = p.bytes
	}
	f.drain(p)
}

// drain pulls packets from the port queue at line rate.
func (f *ElectricalFabric) drain(p *elecPort) {
	if p.busy || p.fifo.Len() == 0 {
		return
	}
	p.busy = true
	pkt := p.fifo.PopFront()
	p.bytes -= int64(pkt.Size)
	ser := p.link.SerializationDelay(pkt.Size)
	if pkt.Trace != nil {
		pkt.Trace.MarkDequeued(core.NoNode, f.eng.Now(), f.eng.Now()+ser)
	}
	p.link.Send(f, pkt, ser)
	f.Forwarded++
	f.eng.AfterEvent(ser, sim.ClassFabricElec, (*elecTxDone)(f), p, 0)
}

// elecTxDone frees the port (arg) when serialization completes and services
// the next queued packet.
type elecTxDone ElectricalFabric

func (a *elecTxDone) RunEvent(arg any, _ int64) {
	f := (*ElectricalFabric)(a)
	p := arg.(*elecPort)
	p.busy = false
	f.drain(p)
}

// traceDrop flushes a sampled packet's trace with a fabric-side drop.
func (f *ElectricalFabric) traceDrop(pkt *core.Packet, reason core.DropReason) {
	if f.Tracer != nil && pkt.Trace != nil {
		f.Tracer.Drop(pkt, reason, core.NoNode, f.eng.Now())
	}
}

// MaxQueueBytes returns the high-water mark of the port serving node.
func (f *ElectricalFabric) MaxQueueBytes(node core.NodeID) int64 {
	if fp, ok := f.byNode[node]; ok {
		return f.ports[fp].maxSeen
	}
	return 0
}
