// Package hostsim models the OpenOptics host system (§5.2): a libvma-style
// userspace NIC stack with socket segment queues that backpressure
// applications naturally, flow pausing driven by circuit-notification
// signals, PIAS-style flow aging to spot elephants without size oracles,
// push-back compliance, per-destination traffic accounting for collect(),
// and the buffer-offloading agent that parks switch packets and returns
// them just before their departure slice.
package hostsim

import (
	"math"

	"openoptics/internal/core"
	"openoptics/internal/fabric"
	"openoptics/internal/sim"
	"openoptics/internal/telemetry"
)

// Config parameterizes a host.
type Config struct {
	ID   core.HostID
	Node core.NodeID // parent ToR / pod switch

	Schedule    *core.Schedule // slice timing for offload returns and pauses
	ClockOffset int64          // sync error in ns

	// SegmentQueueBytes caps the TX segment queue; a full queue pushes
	// back on the sending application (default 4 MB).
	SegmentQueueBytes int64

	// FlowPausing holds elephant flows until a direct circuit to their
	// destination switch is signaled (TA optimization / TO direct mode).
	FlowPausing bool
	// ElephantBytes is the flow-aging threshold after which a flow is
	// treated as an elephant (default 1 MB).
	ElephantBytes int64

	// ReturnJitterNs adds uniform [0, J) jitter to offload returns. The
	// libvma stack keeps this near zero; the Fig. 14 kernel-module
	// baseline sets tens of microseconds.
	ReturnJitterNs int64

	// ReportInterval enables traffic-collection reports of pending bytes
	// per destination every interval ns (0 = disabled).
	ReportInterval int64

	Seed uint64
}

// offloadLead is how early parked packets return to the switch ahead of
// their departure slice, in ns.
const offloadLead = 3000

// Counters aggregates observable host behaviour.
type Counters struct {
	TxPkts        uint64
	RxPkts        uint64
	RxBytes       uint64
	Parked        uint64 // offloaded packets stored
	Returned      uint64 // offloaded packets sent back
	PushBacksRx   uint64
	SignalsRx     uint64
	ReportsSent   uint64
	RejectedFull  uint64 // sends rejected by the full segment queue
	HeldByPause   uint64
	HeldByPushers uint64
}

// nodeHold is the host's record of one destination node: the end of its
// push-back pause and of its signaled circuit window on the local clock
// (noHold: none, or the window closed), and the packets held toward it.
type nodeHold struct {
	pausedUntil, circuitUntil int64
	held                      []txItem
	pending                   int64 // held bytes, the demand reports carry
}

const noHold = math.MinInt64

type txItem struct {
	pkt      *core.Packet
	elephant bool
}

// Host is one server NIC endpoint.
type Host struct {
	Cfg  Config
	eng  *sim.Engine
	rng  *sim.Rand
	link *fabric.Link

	// The segment-queue cap and the elephant threshold, defaults resolved
	// by New.
	segCap, elephant int64

	// Handler receives data packets (transport demux). Must be set
	// before traffic arrives.
	Handler func(pkt *core.Packet)

	// Tracer, when set, starts in-band traces for sampled flows at NIC
	// transmit and finishes them at delivery. One nil check when unset.
	Tracer *telemetry.Tracer

	// Pool, when set, backs the host's own control packets (traffic
	// reports) with slab storage. Nil is valid — packets fall back to the
	// heap, which keeps single-device tests pool-free.
	Pool *core.PacketPool

	// TX machinery.
	ready   core.Deque[txItem] // sendable now
	queuedB int64              // ready+held bytes (segment queue)
	busy    bool
	waiters core.Deque[func()] // callbacks once segment-queue space frees

	flowSent map[core.FlowKey]int64 // flow aging

	// holds is the per-destination-node record, dense by node ID and grown
	// on the first push-back, signal or held packet naming a node.
	holds []nodeHold

	// Offload agent.
	parked int

	Counters Counters
}

// New creates a host; call AttachLink before traffic.
func New(eng *sim.Engine, cfg Config) *Host {
	h := &Host{
		Cfg:      cfg,
		eng:      eng,
		rng:      sim.NewRand(cfg.Seed ^ 0x4057),
		segCap:   4 << 20,
		elephant: 1 << 20,
		flowSent: make(map[core.FlowKey]int64),
	}
	if cfg.SegmentQueueBytes > 0 {
		h.segCap = cfg.SegmentQueueBytes
	}
	if cfg.ElephantBytes > 0 {
		h.elephant = cfg.ElephantBytes
	}
	return h
}

// AttachLink wires the NIC to its ToR downlink.
func (h *Host) AttachLink(l *fabric.Link) { h.link = l }

// Start arms periodic machinery (traffic reports).
func (h *Host) Start() {
	if iv := h.Cfg.ReportInterval; iv > 0 {
		h.eng.EveryClass(iv, iv, sim.ClassHostReport, func() bool {
			h.sendReports()
			return true
		})
	}
}

func (h *Host) localNow() int64 { return h.eng.Now() + h.Cfg.ClockOffset }

// Send hands a packet to the NIC stack. It returns false when the segment
// queue is full — the socket-interface backpressure that suspends the
// application with no extra buffering (§5.2).
func (h *Host) Send(pkt *core.Packet) bool {
	if h.queuedB+int64(pkt.Size) > h.segCap {
		h.Counters.RejectedFull++
		// A rejected packet never enters the network; its life ends here.
		pkt.Free()
		return false
	}
	// Flow aging only feeds the elephant classifier, which is consulted
	// solely under flow pausing — skip the map write otherwise.
	elephant := false
	if h.Cfg.FlowPausing {
		h.flowSent[pkt.Flow] += int64(pkt.Payload)
		elephant = h.flowSent[pkt.Flow] > h.elephant
	}
	it := txItem{pkt: pkt, elephant: elephant}
	h.queuedB += int64(pkt.Size)
	if h.mustHold(it) {
		h.holdBack(it)
	} else {
		h.ready.PushBack(it)
		h.pump()
	}
	return true
}

// NotifySpace registers a one-shot callback invoked when segment-queue
// space frees up (application resume).
func (h *Host) NotifySpace(fn func()) { h.waiters.PushBack(fn) }

// mustHold decides whether a packet waits in the vma segment queue: paused
// destinations (push-back) always hold; with flow pausing on, elephant
// flows hold unless a circuit to the destination is signaled open.
func (h *Host) mustHold(it txItem) bool {
	now := h.localNow()
	dst := it.pkt.DstNode
	if dst == h.Cfg.Node {
		return false // intra-rack, no fabric involved
	}
	paused, circuit := int64(noHold), int64(noHold)
	if dst >= 0 && int(dst) < len(h.holds) {
		paused, circuit = h.holds[dst].pausedUntil, h.holds[dst].circuitUntil
	}
	if now < paused {
		h.Counters.HeldByPushers++
		return true
	}
	if h.Cfg.FlowPausing && it.elephant && now >= circuit {
		h.Counters.HeldByPause++
		return true
	}
	return false
}

// hold returns node n's record for writing, growing holds to reach it.
// Node IDs are non-negative.
func (h *Host) hold(n core.NodeID) *nodeHold {
	for int(n) >= len(h.holds) {
		h.holds = append(h.holds, nodeHold{pausedUntil: noHold, circuitUntil: noHold})
	}
	return &h.holds[n]
}

// holdBack parks a packet in the segment queue until its destination's
// hold lifts.
func (h *Host) holdBack(it txItem) {
	hd := h.hold(it.pkt.DstNode)
	hd.held = append(hd.held, it)
	hd.pending += int64(it.pkt.Size)
}

// pump drives the NIC TX at line rate via the link's serialization clock.
func (h *Host) pump() {
	if h.busy || h.link == nil || h.ready.Len() == 0 {
		return
	}
	it := h.ready.PopFront()
	// Re-check holds at transmit time: a push-back may have arrived
	// after enqueue.
	if h.mustHold(it) {
		h.holdBack(it)
		h.pump()
		return
	}
	h.busy = true
	size := it.pkt.Size
	h.Counters.TxPkts++
	ser := h.link.SerializationDelay(size)
	if h.Tracer != nil {
		h.Tracer.Start(it.pkt, h.eng.Now())
	}
	if it.pkt.Trace != nil && len(it.pkt.Trace.Hops) == 0 {
		// Source-NIC hop, recorded fully stamped: the NIC never waits once
		// a packet is popped (wait 0), and busy-flag serialization pins
		// txdone at Now+ser. Anchoring Hops[0] at StartNs is what makes the
		// delay decomposition sum exactly to EndNs − StartNs. Retransmits
		// and offload-return pumps keep their original first hop.
		now := h.eng.Now()
		it.pkt.Trace.AddHop(core.TraceHop{
			TimeNs:     now,
			Node:       h.Cfg.Node,
			InPort:     core.NoPort,
			Egress:     core.NoPort,
			ArrSlice:   core.WildcardSlice,
			DepSlice:   core.WildcardSlice,
			QueueBytes: h.queuedB - int64(size),
			DeqNs:      now,
			TxDoneNs:   now + ser,
		})
	}
	h.link.Send(h, it.pkt, ser)
	h.eng.AfterEvent(ser, sim.ClassHostTx, (*txDoneAction)(h), nil, int64(size))
}

// txDoneAction fires when the NIC finishes serializing a packet (v is its
// size in bytes): free the TX budget, wake blocked senders, keep pumping.
type txDoneAction Host

func (a *txDoneAction) RunEvent(_ any, v int64) {
	h := (*Host)(a)
	h.busy = false
	h.queuedB -= v
	h.wakeWaiters()
	h.pump()
}

// wakeWaiters resumes one blocked sender per freed packet (FIFO). Waking
// everyone on every transmission is quadratic under fan-in backpressure; a
// connection woken here either sends into the freed space or, if it is
// window-limited instead, resumes through its ACK path.
func (h *Host) wakeWaiters() {
	if h.waiters.Len() == 0 {
		return
	}
	for h.waiters.Len() > 0 && h.queuedB+core.MTU <= h.segCap {
		fn := h.waiters.PopFront()
		fn()
	}
}

// release moves held packets for dst back to the ready queue.
func (h *Host) release(dst core.NodeID) {
	if dst < 0 || int(dst) >= len(h.holds) || len(h.holds[dst].held) == 0 {
		return
	}
	// Holds may still apply (e.g. paused and flow-paused); re-filter.
	hd := &h.holds[dst]
	still := hd.held[:0]
	for _, it := range hd.held {
		if h.mustHold(it) {
			still = append(still, it)
			continue
		}
		hd.pending -= int64(it.pkt.Size)
		h.ready.PushBack(it)
	}
	hd.held = still
	h.pump()
}

// Receive implements fabric.Device.
func (h *Host) Receive(pkt *core.Packet, port core.PortID) {
	h.Counters.RxPkts++
	h.Counters.RxBytes += uint64(pkt.Size)
	if pkt.HasFlag(core.FlagOffloaded) && pkt.Ctrl == core.CtrlOffload {
		h.park(pkt)
		return
	}
	switch pkt.Ctrl {
	case core.CtrlSignal:
		h.Counters.SignalsRx++
		h.onSignal(pkt)
		pkt.Free()
		return
	case core.CtrlSignalClose:
		h.Counters.SignalsRx++
		h.hold(pkt.CtrlNode).circuitUntil = noHold
		pkt.Free()
		return
	case core.CtrlPushBack:
		h.Counters.PushBacksRx++
		h.onPushBack(pkt)
		pkt.Free()
		return
	}
	if h.Tracer != nil && pkt.Trace != nil {
		h.Tracer.Deliver(pkt, h.Cfg.Node, h.eng.Now())
	}
	// Delivery is the end of a data packet's life: the handler (transport
	// demux) consumes the packet synchronously and must not retain it.
	if h.Handler != nil {
		h.Handler(pkt)
	}
	pkt.Free()
}

// onSignal opens the circuit window toward the signaled peer — for the
// upcoming slice in TO mode, or indefinitely for a wildcard-slice (TA
// static circuit) — and releases flow-paused traffic.
func (h *Host) onSignal(pkt *core.Packet) {
	dst := pkt.CtrlNode
	if pkt.CtrlSlice.IsWildcard() || h.Cfg.Schedule == nil || h.Cfg.Schedule.NumSlices <= 1 {
		h.hold(dst).circuitUntil = math.MaxInt64 // open until a close signal
		h.release(dst)
		return
	}
	sd := int64(h.Cfg.Schedule.SliceDuration)
	start := h.Cfg.Schedule.SliceStart(h.localNow(), pkt.CtrlSlice)
	h.hold(dst).circuitUntil = start + sd
	h.eng.AtEvent(maxI64(start-h.Cfg.ClockOffset, h.eng.Now()), sim.ClassHostTx, (*releaseAction)(h), nil, int64(dst))
}

// releaseAction re-examines held traffic toward a destination node (v) when
// a circuit window opens or a pause expires — the closure-free event form of
// h.release, scheduled once per signal/push-back on the hot path.
type releaseAction Host

func (a *releaseAction) RunEvent(_ any, v int64) {
	(*Host)(a).release(core.NodeID(v))
}

// onPushBack pauses traffic to the subject destination until the subject
// slice has fully passed.
func (h *Host) onPushBack(pkt *core.Packet) {
	until := h.localNow() + 1000
	if h.Cfg.Schedule != nil && h.Cfg.Schedule.NumSlices > 1 {
		sd := int64(h.Cfg.Schedule.SliceDuration)
		until = h.Cfg.Schedule.SliceStart(h.localNow(), pkt.CtrlSlice) + sd
	}
	if hd := h.hold(pkt.CtrlNode); until > hd.pausedUntil {
		hd.pausedUntil = until
	}
	h.eng.AtEvent(maxI64(until-h.Cfg.ClockOffset, h.eng.Now()), sim.ClassHostTx, (*releaseAction)(h), nil, int64(pkt.CtrlNode))
}

// park stores an offloaded packet and schedules its return shortly before
// its departure slice (§5.2 buffer offloading).
func (h *Host) park(pkt *core.Packet) {
	h.Counters.Parked++
	h.parked++
	ret := h.eng.Now() + offloadLead
	switch {
	case pkt.CtrlSlice.IsWildcard():
		// No target slice: bounce straight back (the Fig. 14 probe mode).
		ret = h.eng.Now()
	case h.Cfg.Schedule != nil && h.Cfg.Schedule.NumSlices > 1:
		start := h.Cfg.Schedule.SliceStart(h.localNow(), pkt.CtrlSlice)
		ret = start - offloadLead - h.Cfg.ClockOffset
	}
	if j := h.Cfg.ReturnJitterNs; j > 0 {
		ret += int64(h.rng.Uint64() % uint64(j))
	}
	h.eng.AtClass(maxI64(ret, h.eng.Now()), sim.ClassHostOffload, func() {
		h.parked--
		h.Counters.Returned++
		// Returns bypass the segment queue: the agent is a dedicated
		// application isolated from the main data path.
		h.ready.PushBack(txItem{pkt: pkt})
		h.queuedB += int64(pkt.Size)
		h.pump()
	})
}

// ParkedPackets returns the number of currently parked offloaded packets.
func (h *Host) ParkedPackets() int { return h.parked }

// sendReports emits per-destination pending-byte reports toward the ToR
// (the host side of collect(); the switch already observes sent bytes).
func (h *Host) sendReports() {
	if h.link == nil {
		return
	}
	for dst, hd := range h.holds {
		if hd.pending <= 0 {
			continue
		}
		h.Counters.ReportsSent++
		rep := h.Pool.NewPacket(core.Packet{
			ID:       h.rng.Uint64(),
			Flow:     core.FlowKey{Proto: core.ProtoCtrl, SrcHost: h.Cfg.ID},
			SrcNode:  h.Cfg.Node,
			DstNode:  h.Cfg.Node,
			Size:     core.HeaderBytes,
			Flags:    core.FlagReport,
			Ctrl:     core.CtrlReport,
			CtrlNode: core.NodeID(dst),
			Echo:     hd.pending,
			Created:  h.eng.Now(),
			TTL:      core.DefaultTTL,
		})
		h.link.Send(h, rep, h.link.SerializationDelay(rep.Size))
	}
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

var _ fabric.Device = (*Host)(nil)
