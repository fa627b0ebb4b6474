// Package switchsim models the OpenOptics-enabled programmable switch
// (§5.1, §5.2): the time-flow table pipeline and the re-architected queue
// management system — per-egress-port calendar queues rotated every time
// slice by the on-chip packet generator, queue pausing/resuming aligned
// with circuit availability, ingress-side estimated queue occupancy (EQO),
// congestion detection, traffic push-back origination, buffer offloading
// to hosts, and the Tofino2 resource-usage model.
//
// The model executes the same algorithms as the paper's P4 implementation
// with explicit timing constants, so queue dynamics (slice misses,
// wrap-around, occupancy-estimation error, buffer high-water marks)
// reproduce in shape. See DESIGN.md for the substitution argument.
package switchsim

import (
	"fmt"
	"slices"

	"openoptics/internal/core"
	"openoptics/internal/fabric"
	"openoptics/internal/sim"
	"openoptics/internal/stats"
	"openoptics/internal/telemetry"
)

// Response selects the architecture's congestion reaction when a packet's
// calendar queue is detected full (§5.2): drop the packet, trim its payload
// (Opera), or defer it to a later time slice (UCMP, HOHO).
type Response uint8

// Congestion responses.
const (
	RespDrop Response = iota
	RespTrim
	RespDefer
)

func (r Response) String() string {
	switch r {
	case RespDrop:
		return "drop"
	case RespTrim:
		return "trim"
	case RespDefer:
		return "defer"
	}
	return fmt.Sprintf("Response(%d)", uint8(r))
}

// Config parameterizes a switch. Zero values select the defaults noted on
// each field.
type Config struct {
	ID       core.NodeID
	Schedule *core.Schedule // slice timing; NumSlices <= 1 disables calendars

	// NumCalendarQueues is the per-port calendar depth K (default 32,
	// the Tofino2 per-port queue count).
	NumCalendarQueues int
	// BufferBytes is the shared packet buffer (default 64 MB, Tofino2).
	BufferBytes int64
	// PipelineDelay is the ingress-pipeline latency in ns (default 600).
	PipelineDelay int64
	// TxTail is the extra headroom before the slice end within which a
	// transmission must fully land downstream (propagation + cut-through
	// + sync slack). Default 300 ns.
	TxTail int64
	// ClockOffset is this switch's synchronization error in ns.
	ClockOffset int64
	// EQOUpdateInterval is the occupancy-estimation decay interval in ns
	// (default 50, per Fig. 12). Negative disables estimation (perfect
	// ingress knowledge), which exists for ablations only.
	EQOUpdateInterval int64

	// CongestionDetection enables the queue-full/threshold check (§5.2).
	CongestionDetection bool
	// CongestionThresholdBytes is the classic CC threshold per calendar
	// queue; 0 disables the threshold arm of the check.
	CongestionThresholdBytes int64
	// Response is the reaction to detected congestion.
	Response Response
	// PushBack enables traffic push-back origination on queue-full.
	PushBack bool

	// OffloadRank enables buffer offloading: packets ranked at or beyond
	// it are parked on a connected host until shortly before their
	// departure slice. 0 disables offloading.
	OffloadRank int
	// SignalLead is how far ahead of a slice start circuit-notification
	// signals are broadcast to hosts (default 2 µs).
	SignalLead int64

	// Seed decorrelates this switch's randomness (per-packet multipath
	// hashing, offload host selection).
	Seed uint64
}

func (c *Config) queues() int {
	if c.NumCalendarQueues <= 0 {
		return 32
	}
	return c.NumCalendarQueues
}

func (c *Config) buffer() int64 {
	if c.BufferBytes <= 0 {
		return 64 << 20
	}
	return c.BufferBytes
}

func (c *Config) pipeline() int64 {
	if c.PipelineDelay <= 0 {
		return 600
	}
	return c.PipelineDelay
}

func (c *Config) txTail() int64 {
	if c.TxTail <= 0 {
		return 300
	}
	return c.TxTail
}

func (c *Config) eqoInterval() int64 {
	if c.EQOUpdateInterval == 0 {
		return 50
	}
	return c.EQOUpdateInterval
}

func (c *Config) signalLead() int64 {
	if c.SignalLead <= 0 {
		return 2000
	}
	return c.SignalLead
}

func (c *Config) calendarOn() bool {
	return c.Schedule != nil && c.Schedule.NumSlices > 1
}

type portKind uint8

const (
	portUplink portKind = iota
	portDownlink
	portElec
)

type calQueue struct {
	fifo  core.Deque[*core.Packet]
	bytes int64
}

type outPort struct {
	id   core.PortID
	kind portKind
	host core.HostID
	link *fabric.Link

	queues []calQueue
	estOcc []int64 // ingress-side estimated occupancy registers (uplinks)
	// lastDecay is the last time the active queue's EQO register was
	// decayed (quantized to the update interval).
	lastDecay int64
	busy      bool

	bytes    int64 // total buffered on this port
	txBytes  uint64
	txPkts   uint64
	maxBytes int64
}

// Counters aggregates the switch's observable behaviour for experiments.
type Counters struct {
	RxPkts        uint64
	TxPkts        uint64
	Delivered     uint64 // handed to local hosts
	DropsNoRoute  uint64
	DropsBuffer   uint64
	DropsWrap     uint64 // rank beyond calendar depth without offloading
	DropsCongest  uint64
	DropsTTL      uint64
	Trims         uint64
	Defers        uint64
	PushBacksSent uint64
	PushBacksRx   uint64
	Offloads      uint64
	OffloadsBack  uint64
	SliceMisses   uint64 // packets still queued when their slice ended
	Fallbacks     uint64 // transit lookups recovered by the slice-miss fallback
	EnqueuedBytes uint64
}

// Switch is one OpenOptics-enabled ToR/pod switch.
type Switch struct {
	Cfg Config
	eng *sim.Engine
	rng *sim.Rand

	// Pool allocates the switch's own control packets (signals, push-back,
	// relay copies). Nil is valid: packets fall back to the heap, which is
	// what device-level tests use.
	Pool *core.PacketPool

	table *core.Table
	ix    *core.ConnIndex

	ports []*outPort
	// byPort and downByHost are dense lookup tables indexed by port id and
	// host id (both small, contiguous in every deployment). The forwarding
	// path resolves a port on every hop; a slice index replaces the map
	// hash+probe that used to show up in packet-rate profiles. nil = no
	// such port/host.
	byPort     []*outPort
	downByHost []*outPort
	hosts      []core.HostID

	active    int
	rotations int64

	cp      *ControlPlane
	tm      core.TM       // per-destination-node byte counts since last collect
	tmTotal core.TM       // collected windows folded in at every CollectTM
	n       int           // node count for the TM
	taPeers []core.NodeID // TA-mode circuit peers in node order (InstallConnIndex)

	// DelaySampler, when set, receives the queueing delay of every packet
	// the switch transmits on an uplink (Table 4 delay rows).
	DelaySampler func(ns int64)
	// WireDelaySampler, when set, receives the switch-to-switch delay
	// (TX trigger to Rx MAC) and size of every packet arriving on an
	// uplink (Fig. 11).
	WireDelaySampler func(ns int64, size int32)
	// OffloadSampler, when set, receives the park-to-return round trip of
	// every offloaded packet (Fig. 14).
	OffloadSampler func(ns int64)

	bufferHist *stats.Histogram
	Counters   Counters
	started    bool

	// Tracer, when set, receives in-band per-hop trace records for
	// sampled packets (telemetry). Hot-path cost when unset: one nil
	// check per decision point.
	Tracer *telemetry.Tracer
	// OnRotate, when set, fires after every calendar-queue rotation with
	// the slice that just ended — the flight recorder's per-slice sampling
	// point. Hot-path cost when unset: one nil check per rotation (one per
	// slice, not per packet).
	OnRotate func(ended core.Slice)

	// dropsBySlice[r] counts drops of DropReasons[r] by arrival slice and
	// missesBySlice counts slice misses by the slice that ended: one entry
	// per slice of the cycle (one when the calendar is off), sized in
	// Start.
	dropsBySlice  [len(DropReasons)][]uint64
	missesBySlice []uint64
}

// DropReasons is the closed set of switch-side drop reasons, mirrored by
// the Counters Drops* fields.
var DropReasons = [...]core.DropReason{
	core.DropNoRoute, core.DropBuffer, core.DropWrap, core.DropCongest, core.DropTTL,
}

// DropsBySlice returns the switch's drops of one reason by arrival slice;
// nil before Start or for a reason outside DropReasons. The slice is the
// switch's live counter array: read it, never write it.
func (s *Switch) DropsBySlice(reason core.DropReason) []uint64 {
	for r, dr := range DropReasons {
		if dr == reason {
			return s.dropsBySlice[r]
		}
	}
	return nil
}

// MissesBySlice returns the switch's slice misses by the slice that ended
// (the switch's live counter array; nil before Start).
func (s *Switch) MissesBySlice() []uint64 { return s.missesBySlice }

// dropPkt is the single exit point for switch-side drops: it bumps the
// aggregate counter for the reason, attributes the drop to the packet's
// arrival slice, flushes the packet's in-band trace, and returns the
// packet to its pool — a drop ends the packet's life.
func (s *Switch) dropPkt(pkt *core.Packet, reason core.DropReason) {
	switch reason {
	case core.DropNoRoute:
		s.Counters.DropsNoRoute++
	case core.DropBuffer:
		s.Counters.DropsBuffer++
	case core.DropWrap:
		s.Counters.DropsWrap++
	case core.DropCongest:
		s.Counters.DropsCongest++
	case core.DropTTL:
		s.Counters.DropsTTL++
	}
	if row := s.DropsBySlice(reason); len(row) > 0 {
		i := 0
		if sl := pkt.ArrSlice(); !sl.IsWildcard() && int(sl) >= 0 {
			i = int(sl) % len(row)
		}
		row[i]++
	}
	if s.Tracer != nil && pkt.Trace != nil {
		s.Tracer.Drop(pkt, reason, s.Cfg.ID, s.eng.Now())
	}
	pkt.Free()
}

// traceHop appends one in-band hop record to a sampled packet.
func (s *Switch) traceHop(pkt *core.Packet, inPort, egress core.PortID, arr, dep core.Slice, queueBytes int64) {
	if pkt.Trace == nil {
		return
	}
	pkt.Trace.AddHop(core.TraceHop{
		TimeNs: s.eng.Now(), Node: s.Cfg.ID, InPort: inPort, Egress: egress,
		ArrSlice: arr, DepSlice: dep, QueueBytes: queueBytes,
	})
}

// New creates a switch. Wire ports with AttachUplink/AttachDownlink/
// AttachElectrical, install tables with InstallTable, then Start.
func New(eng *sim.Engine, cfg Config, nodeCount int) *Switch {
	s := &Switch{
		Cfg:        cfg,
		eng:        eng,
		rng:        sim.NewRand(cfg.Seed ^ 0x5eed5eed),
		table:      core.NewTable(),
		n:          nodeCount,
		tm:         core.NewTM(nodeCount),
		tmTotal:    core.NewTM(nodeCount),
		bufferHist: stats.NewHistogram(1024, 64<<20),
	}
	return s
}

// ID returns the switch's endpoint node id.
func (s *Switch) ID() core.NodeID { return s.Cfg.ID }

func (s *Switch) addPort(id core.PortID, kind portKind, host core.HostID, link *fabric.Link) *outPort {
	nq := 1
	if kind == portUplink && s.Cfg.calendarOn() {
		nq = s.Cfg.queues()
	}
	p := &outPort{id: id, kind: kind, host: host, link: link,
		queues: make([]calQueue, nq), estOcc: make([]int64, nq)}
	s.ports = append(s.ports, p)
	for int(id) >= len(s.byPort) {
		s.byPort = append(s.byPort, nil)
	}
	s.byPort[id] = p
	return p
}

// portAt resolves a port id against the dense table (nil = unknown port,
// including NoPort).
func (s *Switch) portAt(id core.PortID) *outPort {
	if id < 0 || int(id) >= len(s.byPort) {
		return nil
	}
	return s.byPort[id]
}

// downPortAt resolves a host id to its downlink port (nil = unknown host).
func (s *Switch) downPortAt(h core.HostID) *outPort {
	if h < 0 || int(h) >= len(s.downByHost) {
		return nil
	}
	return s.downByHost[h]
}

// AttachUplink wires optical uplink port id to the fabric-side link.
func (s *Switch) AttachUplink(id core.PortID, link *fabric.Link) {
	s.addPort(id, portUplink, core.NoHost, link)
}

// AttachDownlink wires downlink port id to host h.
func (s *Switch) AttachDownlink(id core.PortID, h core.HostID, link *fabric.Link) {
	p := s.addPort(id, portDownlink, h, link)
	for int(h) >= len(s.downByHost) {
		s.downByHost = append(s.downByHost, nil)
	}
	s.downByHost[h] = p
	s.hosts = append(s.hosts, h)
}

// AttachElectrical wires port id to the electrical fabric (hybrid and
// Clos deployments).
func (s *Switch) AttachElectrical(id core.PortID, link *fabric.Link) {
	s.addPort(id, portElec, core.NoHost, link)
}

// AttachControlPlane joins the out-of-band management network used for
// push-back messages and controller communication.
func (s *Switch) AttachControlPlane(cp *ControlPlane) {
	s.cp = cp
	cp.Register(s.Cfg.ID, s.ctrlIn)
}

// InstallTable replaces the switch's time-flow table (deploy_routing).
func (s *Switch) InstallTable(t *core.Table) { s.table = t }

// Table returns the installed time-flow table (for the add() API and
// resource accounting).
func (s *Switch) Table() *core.Table { return s.table }

// InstallConnIndex gives the switch the deployed schedule's connectivity
// view, used to originate circuit-notification signals (deploy_topo).
// In TA mode (calendar off) it immediately signals hosts about circuits
// that came up or went away, so flow pausing tracks the static topology.
func (s *Switch) InstallConnIndex(ix *core.ConnIndex) {
	s.ix = ix
	if s.Cfg.calendarOn() {
		return
	}
	// Both peer lists are sorted, so the signals go out in node order and
	// re-runs dispatch them identically.
	next := ix.Neighbors(s.Cfg.ID, core.WildcardSlice)
	for _, peer := range next {
		if !slices.Contains(s.taPeers, peer) {
			s.signalHosts(peer, core.WildcardSlice, core.CtrlSignal)
		}
	}
	for _, peer := range s.taPeers {
		if !slices.Contains(next, peer) {
			s.signalHosts(peer, core.WildcardSlice, core.CtrlSignalClose)
		}
	}
	s.taPeers = next
}

// signalHosts broadcasts a circuit notification to every connected host.
func (s *Switch) signalHosts(peer core.NodeID, ts core.Slice, kind core.CtrlKind) {
	for _, h := range s.hosts {
		sig := s.Pool.NewPacket(core.Packet{
			ID:        s.rng.Uint64(),
			Flow:      core.FlowKey{Proto: core.ProtoCtrl, DstHost: h},
			SrcNode:   s.Cfg.ID,
			DstNode:   s.Cfg.ID,
			Size:      core.HeaderBytes,
			Flags:     core.FlagSignal,
			Ctrl:      kind,
			CtrlNode:  peer,
			CtrlSlice: ts,
			Created:   s.eng.Now(),
			TTL:       core.DefaultTTL,
		})
		s.toHost(h, sig)
	}
}

// effQueues returns the effective calendar depth: at most the configured
// hardware queue count, and no more than the optical cycle length — one
// queue per slice keeps the slice↔queue mapping exact, so a packet that
// misses its slice waits exactly one cycle instead of aliasing onto a
// different circuit.
func (s *Switch) effQueues() int {
	k := s.Cfg.queues()
	if s.Cfg.calendarOn() && s.Cfg.Schedule.NumSlices < k {
		k = s.Cfg.Schedule.NumSlices
	}
	return k
}

// Start arms the periodic machinery: queue rotation at every slice
// boundary (the on-chip packet generator), EQO decay, and signal
// broadcasts. Must be called once, after topology deployment fixes the
// cycle length and before traffic.
func (s *Switch) Start() {
	if s.started {
		panic("switchsim: Start called twice")
	}
	s.started = true
	ns := 1
	if s.Cfg.calendarOn() {
		ns = s.Cfg.Schedule.NumSlices
	}
	for r := range s.dropsBySlice {
		s.dropsBySlice[r] = make([]uint64, ns)
	}
	s.missesBySlice = make([]uint64, ns)
	if !s.Cfg.calendarOn() {
		return
	}
	// Size uplink calendars now that the cycle length is known.
	k := s.effQueues()
	for _, p := range s.ports {
		if p.kind == portUplink && len(p.queues) != k {
			p.queues = make([]calQueue, k)
			p.estOcc = make([]int64, k)
		}
	}
	sd := int64(s.Cfg.Schedule.SliceDuration)
	// Queue rotation: the generator fires at each local slice boundary.
	// ClockOffset shifts the local boundary relative to global time.
	first := sd - s.Cfg.ClockOffset
	for first < 0 {
		first += sd
	}
	s.eng.EveryClass(first, sd, sim.ClassSwitchRotate, func() bool {
		s.rotate()
		return true
	})
	// Signal broadcasts lead each slice boundary.
	if s.ix != nil {
		lead := s.Cfg.signalLead()
		firstSig := first - lead
		for firstSig < 0 {
			firstSig += sd
		}
		s.eng.EveryClass(firstSig, sd, sim.ClassSwitchSignal, func() bool {
			s.broadcastSignals()
			return true
		})
	}
}

// localNow returns the switch's local clock (global time + sync error).
func (s *Switch) localNow() int64 { return s.eng.Now() + s.Cfg.ClockOffset }

// localSlice returns the current slice per the local clock.
func (s *Switch) localSlice() core.Slice {
	if !s.Cfg.calendarOn() {
		return 0
	}
	return s.Cfg.Schedule.SliceAt(s.localNow())
}

// rotate pauses the active calendar queue and resumes the next one on
// every egress port (§5.1). Packets left in the outgoing queue have missed
// their slice and wait a full calendar rotation.
func (s *Switch) rotate() {
	k := s.effQueues()
	endedSlice := s.Cfg.Schedule.SliceAt(s.localNow() - 1)
	for _, p := range s.ports {
		if p.kind != portUplink {
			continue
		}
		if left := p.queues[s.active].fifo.Len(); left > 0 {
			s.Counters.SliceMisses += uint64(left)
			if int(endedSlice) >= 0 && int(endedSlice) < len(s.missesBySlice) {
				s.missesBySlice[endedSlice] += uint64(left)
			}
		}
		// Settle the outgoing active queue's EQO decay over the slice
		// that just ended, then restart the decay clock for the incoming
		// one.
		s.eqoSettle(p, s.active)
		p.lastDecay = s.eng.Now()
	}
	s.rotations++
	s.active = int(s.rotations % int64(k))
	for _, p := range s.ports {
		if p.kind == portUplink {
			s.drain(p)
		}
	}
	if s.OnRotate != nil {
		s.OnRotate(endedSlice)
	}
}

// drain services a port. Uplinks transmit only from the active calendar
// queue and only inside the slice's transmit window; other ports are plain
// FIFO.
func (s *Switch) drain(p *outPort) {
	if p.busy {
		return
	}
	qi := 0
	if p.kind == portUplink && s.Cfg.calendarOn() {
		qi = s.active
	}
	q := &p.queues[qi]
	if q.fifo.Len() == 0 {
		return
	}
	pkt := q.fifo.Front()
	ser := p.link.SerializationDelay(pkt.Size)
	if p.kind == portUplink && s.Cfg.calendarOn() {
		sd := int64(s.Cfg.Schedule.SliceDuration)
		local := s.localNow()
		sliceStart := local - local%sd
		guardEnd := sliceStart + int64(s.Cfg.Schedule.Guard)
		sliceEnd := sliceStart + sd
		if local < guardEnd {
			wait := guardEnd - local
			s.eng.AfterEvent(wait, sim.ClassSwitchDrain, (*drainAction)(s), p, 0)
			return
		}
		if local+ser+s.Cfg.txTail() > sliceEnd {
			// Would overrun the circuit: the head packet misses this
			// pass; the queue resumes when its slice comes around again.
			return
		}
	}
	q.fifo.PopFront()
	if pkt.Trace != nil {
		// TxDoneNs can be stamped now: busy-flag serialization means the
		// wire starts at Now, so serialization completes at Now+ser — the
		// same instant the txDoneAction below fires.
		pkt.Trace.MarkDequeued(s.Cfg.ID, s.eng.Now(), s.eng.Now()+ser)
	}
	p.busy = true
	p.txBytes += uint64(pkt.Size)
	p.txPkts++
	s.Counters.TxPkts++
	if p.kind == portUplink && s.DelaySampler != nil && pkt.Enqueued > 0 {
		s.DelaySampler(s.eng.Now() - pkt.Enqueued)
	}
	if p.kind == portUplink {
		// Re-stamp as the TX trigger time so the receiving switch can
		// measure the switch-to-switch wire delay (Fig. 11).
		pkt.Enqueued = s.eng.Now()
	}
	// Buffer bytes are freed when the packet has fully left the switch,
	// matching how an egress packet would read queue occupancy. The queue
	// index and byte count ride in the event's scalar operand (Size is a
	// positive int32, so it fits the low word).
	v := int64(qi)<<32 | int64(pkt.Size)
	p.link.Send(s, pkt, ser)
	s.eng.AfterEvent(ser, sim.ClassSwitchDrain, (*txDoneAction)(s), p, v)
}

// drainAction retries drain on a port (arg) — scheduled when the head
// packet must wait out the guardband at the top of a slice.
type drainAction Switch

func (a *drainAction) RunEvent(arg any, _ int64) { (*Switch)(a).drain(arg.(*outPort)) }

// txDoneAction fires when a packet has fully serialized onto the wire:
// arg is the port, v packs (calendar queue index << 32 | packet size).
type txDoneAction Switch

func (a *txDoneAction) RunEvent(arg any, v int64) {
	s := (*Switch)(a)
	p := arg.(*outPort)
	q := &p.queues[int(v>>32)]
	size := v & 0xffffffff
	q.bytes -= size
	p.bytes -= size
	p.busy = false
	s.drain(p)
}

// eqoSettle finalizes queue qi's generator decay over the slice that just
// ended. rotate calls it at the boundary, where eqoRead's current-slice
// window would be empty.
func (s *Switch) eqoSettle(p *outPort, qi int) {
	iv := s.Cfg.eqoInterval()
	if iv <= 0 || p.kind != portUplink || !s.Cfg.calendarOn() || qi >= len(p.estOcc) {
		return
	}
	sd := int64(s.Cfg.Schedule.SliceDuration)
	local := s.localNow()
	// The ended slice is the one containing local-1.
	sliceStart := ((local - 1) / sd) * sd
	off := local - s.eng.Now()
	from := max(sliceStart+int64(s.Cfg.Schedule.Guard)-off, p.lastDecay)
	p.eqoDecay(qi, from, sliceStart+sd-s.Cfg.txTail()-off, iv)
}

// eqoDecay applies the generator ticks of interval iv (> 0) that fit in
// [from, until) to queue qi's estimate: one tick's line-rate bytes each,
// clamped at zero. lastDecay advances to the last tick applied.
func (p *outPort) eqoDecay(qi int, from, until, iv int64) {
	steps := (until - from) / iv
	if steps <= 0 {
		return
	}
	dec := p.link.BandwidthBps * iv / 8 / 1e9 * steps
	if p.estOcc[qi] > dec {
		p.estOcc[qi] -= dec
	} else {
		p.estOcc[qi] = 0
	}
	p.lastDecay = from + steps*iv
}

// eqoRead returns queue qi's estimated occupancy after applying the
// packet-generator decay (Appx. A): assuming line-rate dequeuing, the
// *active* queue's estimate drops by bandwidth × interval per generator
// tick, clamped at zero. Paused queues never decay. The decay is applied
// lazily but quantized to the update interval, so reads observe exactly
// the value the tick-driven register would hold — including the
// sub-interval staleness that Fig. 12 measures — without simulating 20M
// generator events per second.
func (s *Switch) eqoRead(p *outPort, qi int) int64 {
	iv := s.Cfg.eqoInterval()
	if iv <= 0 || p.kind != portUplink {
		// Estimation disabled: perfect ingress knowledge (ablation mode).
		if qi < len(p.queues) {
			return p.queues[qi].bytes
		}
		return 0
	}
	activeIdx := 0
	if s.Cfg.calendarOn() {
		activeIdx = s.active
	}
	if qi != activeIdx {
		return p.estOcc[qi]
	}
	// Decay only across the window in which the active queue actually
	// drains: after the guardband, before the end-of-slice transmit
	// cutoff. Decaying through paused periods would systematically
	// under-estimate by guard+tail × line rate.
	now := s.eng.Now()
	until := now
	from := p.lastDecay
	if s.Cfg.calendarOn() {
		sd := int64(s.Cfg.Schedule.SliceDuration)
		local := s.localNow()
		sliceStart := local - local%sd
		off := local - now // local-to-global conversion
		gEnd := sliceStart + int64(s.Cfg.Schedule.Guard) - off
		tEnd := sliceStart + sd - s.Cfg.txTail() - off
		if from < gEnd {
			from = gEnd
		}
		if until > tEnd {
			until = tEnd
		}
	}
	p.eqoDecay(qi, from, until, iv)
	return p.estOcc[qi]
}

// broadcastSignals notifies connected hosts of the circuits coming up in
// the next slice (flow pausing and offload-return triggers, §5.2).
func (s *Switch) broadcastSignals() {
	if s.ix == nil {
		return
	}
	sd := int64(s.Cfg.Schedule.SliceDuration)
	next := s.Cfg.Schedule.SliceAt(s.localNow() + sd)
	for _, peer := range s.ix.Neighbors(s.Cfg.ID, next) {
		s.signalHosts(peer, next, core.CtrlSignal)
	}
}

// toHost enqueues a packet on the host's downlink.
func (s *Switch) toHost(h core.HostID, pkt *core.Packet) {
	p := s.downPortAt(h)
	if p == nil {
		s.dropPkt(pkt, core.DropNoRoute)
		return
	}
	s.enqueue(p, 0, pkt)
}

// enqueue places pkt on queue qi of port p with buffer accounting.
func (s *Switch) enqueue(p *outPort, qi int, pkt *core.Packet) {
	if s.totalBuffered()+int64(pkt.Size) > s.Cfg.buffer() {
		s.dropPkt(pkt, core.DropBuffer)
		return
	}
	pkt.Enqueued = s.eng.Now()
	q := &p.queues[qi]
	q.fifo.PushBack(pkt)
	q.bytes += int64(pkt.Size)
	p.bytes += int64(pkt.Size)
	if p.bytes > p.maxBytes {
		p.maxBytes = p.bytes
	}
	s.Counters.EnqueuedBytes += uint64(pkt.Size)
	s.bufferHist.Add(float64(s.totalBuffered()))
	if qi < len(p.estOcc) {
		p.estOcc[qi] += int64(pkt.Size)
	}
	active := 0
	if p.kind == portUplink && s.Cfg.calendarOn() {
		active = s.active
	}
	if qi == active {
		s.drain(p)
	}
}

func (s *Switch) totalBuffered() int64 {
	var t int64
	for _, p := range s.ports {
		t += p.bytes
	}
	return t
}

// BufferUsage implements the buffer_usage() telemetry API: bytes currently
// buffered on the given port (NoPort = whole switch).
func (s *Switch) BufferUsage(port core.PortID) int64 {
	if port == core.NoPort {
		return s.totalBuffered()
	}
	if p := s.portAt(port); p != nil {
		return p.bytes
	}
	return 0
}

// MaxBufferUsage returns the switch-wide buffer high-water mark.
func (s *Switch) MaxBufferUsage() int64 {
	var t int64
	for _, p := range s.ports {
		t += p.maxBytes
	}
	return t
}

// BufferPercentile returns the q-quantile (0..1) of the buffered-bytes
// distribution sampled at every enqueue (Table 3's 99.9 %-ile).
func (s *Switch) BufferPercentile(q float64) float64 { return s.bufferHist.Quantile(q) }

// BWUsage implements the bw_usage() telemetry API: bytes transmitted on
// the port since start.
func (s *Switch) BWUsage(port core.PortID) uint64 {
	if p := s.portAt(port); p != nil {
		return p.txBytes
	}
	return 0
}

// CollectTM returns the per-destination traffic matrix *window* tracked
// since the previous CollectTM — delta, not cumulative, semantics (the
// collect() API's switch-side path). The returned window is folded into
// the cumulative matrix before the tracker resets, so consecutive windows
// always sum to CumulativeTM.
func (s *Switch) CollectTM() core.TM {
	out := s.tm
	for i := range out {
		for j := range out[i] {
			s.tmTotal[i][j] += out[i][j]
		}
	}
	s.tm = core.NewTM(s.n)
	return out
}

// CumulativeTM returns the all-time traffic matrix: every window CollectTM
// has returned plus the still-open one. It copies and never resets.
func (s *Switch) CumulativeTM() core.TM {
	out := s.tmTotal.Clone()
	for i := range s.tm {
		for j := range s.tm[i] {
			out[i][j] += s.tm[i][j]
		}
	}
	return out
}

// ActiveQueue exposes the current calendar queue index (tests, Fig. 6).
func (s *Switch) ActiveQueue() int { return s.active }

// QueueBytes returns the actual bytes in calendar queue qi of port id.
func (s *Switch) QueueBytes(id core.PortID, qi int) int64 {
	if p := s.portAt(id); p != nil && qi < len(p.queues) {
		return p.queues[qi].bytes
	}
	return 0
}

// EstimatedQueueBytes returns the ingress-side EQO register value as the
// pipeline would read it right now.
func (s *Switch) EstimatedQueueBytes(id core.PortID, qi int) int64 {
	if p := s.portAt(id); p != nil && qi < len(p.estOcc) {
		return s.eqoRead(p, qi)
	}
	return 0
}

var _ fabric.Device = (*Switch)(nil)
