package switchsim

import (
	"openoptics/internal/core"
	"openoptics/internal/sim"
)

// This file is the ingress pipeline (Fig. 6): time-flow table lookup with
// the arrival slice stamped per Req. 1, calendar-queue selection by rank
// (departure − arrival slices), the congestion-detection check against the
// EQO registers, congestion responses (drop / trim / defer), push-back
// origination, and buffer offloading.

// Receive implements fabric.Device: the packet enters the ingress
// pipeline, whose stage runs the pipeline delay later. Links wired to the
// switch schedule that stage themselves (Pipeline); Receive is the entry
// for packets injected straight into a switch.
func (s *Switch) Receive(pkt *core.Packet, inPort core.PortID) {
	s.eng.AfterEvent(s.pipeline, sim.ClassSwitchIngress, (*ingressAction)(s), pkt, int64(inPort))
}

// Pipeline implements fabric.Pipelined: a link delivers straight into the
// ingress stage, one pipeline delay after the packet's arrival.
func (s *Switch) Pipeline() (int64, sim.Class, sim.Action) {
	return s.pipeline, sim.ClassSwitchIngress, (*ingressAction)(s)
}

// ingressAction is the ingress stage, run one pipeline delay after the
// packet arrived: arg is the packet, v the ingress port. One of these
// fires per packet per hop.
type ingressAction Switch

func (a *ingressAction) RunEvent(arg any, v int64) {
	s := (*Switch)(a)
	pkt, inPort := arg.(*core.Packet), core.PortID(v)
	s.Counters.RxPkts++
	if s.WireDelaySampler != nil && pkt.Enqueued > 0 {
		if p := s.portAt(inPort); p != nil && p.kind == portUplink {
			arrived := s.eng.Now() - s.pipeline
			s.WireDelaySampler(arrived-pkt.Enqueued, pkt.Size)
		}
	}
	s.process(pkt, inPort)
}

func (s *Switch) process(pkt *core.Packet, inPort core.PortID) {
	if pkt.IsCtrl() || pkt.Ctrl != core.CtrlNone {
		s.handleCtrl(pkt, inPort)
		return
	}
	// Req. 1: stamp the arrival time slice.
	arr := s.localSlice()
	pkt.SetArrSlice(arr)

	// Traffic accounting for collect(): bytes entering from local hosts,
	// keyed by destination node.
	if p := s.portAt(inPort); p != nil && p.kind == portDownlink {
		s.tmAdd(pkt.DstNode, float64(pkt.Size))
	}

	// Local delivery: packets for hosts under this switch skip the
	// calendar system and go straight down.
	if pkt.DstNode == s.Cfg.ID {
		s.Counters.Delivered++
		if pkt.Trace != nil {
			if p := s.downPortAt(pkt.Flow.DstHost); p != nil {
				s.traceHop(pkt, inPort, p.id, arr, core.WildcardSlice, p.bytes)
			}
		}
		s.toHost(pkt.Flow.DstHost, pkt)
		return
	}

	if pkt.TTL <= 0 {
		s.dropPkt(pkt, core.DropTTL)
		return
	}
	pkt.TTL--

	// Routing decision: a pending source route wins; otherwise the
	// time-flow table decides (Fig. 3).
	var egress core.PortID
	var dep core.Slice
	if pkt.SRIdx < len(pkt.SR) {
		h, _ := pkt.NextSR()
		egress, dep = h.Egress, h.DepSlice
	} else {
		res, ok := s.table.Lookup(arr, pkt.SrcNode, pkt.DstNode, s.rng.Uint64(), pkt.FlowHash())
		if !ok {
			// Slice-miss fallback: a transit packet whose arrival slice
			// drifted past its planned entry (hop latency at very short
			// slices) forwards over the earliest direct circuit to its
			// destination — the behaviour rotor intermediates implement
			// in hardware. Only applies when routing is deployed at all.
			if s.table.Len() > 0 && s.ix != nil {
				if dep2, eg2, ok2 := s.earliestCircuit(pkt.DstNode, arr); ok2 {
					s.Counters.Fallbacks++
					s.forward(pkt, inPort, eg2, dep2, arr)
					return
				}
			}
			s.dropPkt(pkt, core.DropNoRoute)
			return
		}
		egress, dep = res.Egress, res.DepSlice
		if len(res.SourceRoute) > 1 {
			pkt.SR = res.SourceRoute
			pkt.SRIdx = 1
		}
	}
	s.forward(pkt, inPort, egress, dep, arr)
}

// forward places the packet on the egress port's queue system.
func (s *Switch) forward(pkt *core.Packet, inPort, egress core.PortID, dep core.Slice, arr core.Slice) {
	p := s.portAt(egress)
	if p == nil {
		s.dropPkt(pkt, core.DropNoRoute)
		return
	}
	if p.kind != portUplink || !s.cal {
		s.traceHop(pkt, inPort, egress, arr, dep, p.bytes)
		s.enqueue(p, 0, pkt)
		return
	}
	rank := s.Cfg.Schedule.SlicesUntil(arr, dep)
	// Buffer offloading (§5.2): ranks beyond the kept calendar horizon
	// are parked on a host until shortly before their slice.
	if s.Cfg.OffloadRank > 0 && rank >= s.Cfg.OffloadRank && !pkt.HasFlag(core.FlagOffloaded) {
		s.offload(pkt, egress, dep)
		return
	}
	if rank >= s.k {
		// Wrap-around would alias an earlier slice: never enqueue.
		s.dropPkt(pkt, core.DropWrap)
		return
	}
	qi := (s.active + rank) % s.k
	if s.Cfg.CongestionDetection && s.queueFull(p, qi, rank, pkt.Size) {
		s.congested(pkt, inPort, p, qi, dep, arr, rank)
		return
	}
	pkt.Flags &^= core.FlagOffloaded
	s.traceHop(pkt, inPort, egress, arr, dep, p.queues[qi].bytes)
	s.enqueue(p, qi, pkt)
}

// queueFull is the congestion-detection predicate (§5.2): the calendar
// queue is full when its estimated occupancy exceeds the admissible data
// for the slice — for the active queue, what the remaining slice time can
// transmit; for future queues, one full slice's worth — or when the
// classic congestion threshold is hit, whichever happens first.
func (s *Switch) queueFull(p *outPort, qi, rank int, size int32) bool {
	est := s.eqoRead(p, qi) + int64(size)
	adm := s.admissible(p, rank)
	if est > adm {
		return true
	}
	if thr := s.Cfg.CongestionThresholdBytes; thr > 0 && est > thr {
		return true
	}
	return false
}

func (s *Switch) admissible(p *outPort, rank int) int64 {
	usable := s.sd - s.guard - txTail
	if rank == 0 {
		_, until := s.drainWindow(s.localNow())
		usable = min(usable, max(until-s.eng.Now(), 0))
	}
	return p.link.BandwidthBps * usable / 8 / 1e9
}

// congested applies the architecture's congestion response to a packet
// whose planned calendar queue qi (rank after arrival) is full and, if
// enabled, originates a traffic push-back message toward the sender
// switch (§5.2).
func (s *Switch) congested(pkt *core.Packet, inPort core.PortID, p *outPort, qi int, dep, arr core.Slice, rank int) {
	if s.Cfg.PushBack {
		s.sendPushBack(pkt.SrcNode, pkt.DstNode, dep)
	}
	switch s.Cfg.Response {
	case RespTrim:
		// Opera-style trimming: keep the header so the receiver can NACK.
		if pkt.Size > core.HeaderBytes {
			pkt.Size = core.HeaderBytes
			pkt.Payload = 0
			pkt.Flags |= core.FlagTrimmed
			s.Counters.Trims++
			s.traceHop(pkt, inPort, p.id, arr, dep, p.queues[qi].bytes)
			s.enqueue(p, qi, pkt)
			return
		}
		s.dropPkt(pkt, core.DropCongest)
	case RespDefer:
		// Defer to the next time slice that can still fit the packet
		// (UCMP/HOHO slice-miss handling).
		lim := s.k
		if s.Cfg.OffloadRank > 0 && s.Cfg.OffloadRank < lim {
			lim = s.Cfg.OffloadRank
		}
		for r := rank + 1; r < lim; r++ {
			qi := (s.active + r) % s.k
			if !s.queueFull(p, qi, r, pkt.Size) {
				s.Counters.Defers++
				// The deferred departure slice is r ranks after arrival.
				dep2 := core.Slice((int(arr) + r) % s.ns)
				s.traceHop(pkt, inPort, p.id, arr, dep2, p.queues[qi].bytes)
				s.enqueue(p, qi, pkt)
				return
			}
		}
		s.dropPkt(pkt, core.DropCongest)
	default:
		s.dropPkt(pkt, core.DropCongest)
	}
}

// sendPushBack broadcasts a push-back message for (dstNode, slice) to the
// sender switch over the management network; the sender relays it to its
// hosts, which pause traffic toward that destination during that slice.
func (s *Switch) sendPushBack(srcNode, dstNode core.NodeID, slice core.Slice) {
	if s.cp == nil {
		return
	}
	s.Counters.PushBacksSent++
	pb := s.Pool.NewPacket(core.Packet{
		ID:        s.rng.Uint64(),
		Flow:      core.FlowKey{Proto: core.ProtoCtrl},
		SrcNode:   s.Cfg.ID,
		DstNode:   srcNode,
		Size:      core.HeaderBytes,
		Flags:     core.FlagPushBack,
		Ctrl:      core.CtrlPushBack,
		CtrlNode:  dstNode,
		CtrlSlice: slice,
		Created:   s.eng.Now(),
		TTL:       core.DefaultTTL,
	})
	s.cp.SendTo(srcNode, pb)
}

// offload parks the packet on a randomly selected connected host along
// with its forwarding decision (egress, departure slice) encoded as a
// source route; the host returns it shortly before the slice (§5.2).
func (s *Switch) offload(pkt *core.Packet, egress core.PortID, dep core.Slice) {
	if len(s.hosts) == 0 {
		s.dropPkt(pkt, core.DropWrap)
		return
	}
	h := s.hosts[s.rng.Intn(len(s.hosts))]
	pkt.Flags |= core.FlagOffloaded
	pkt.Ctrl = core.CtrlOffload
	pkt.OffloadedAt = s.eng.Now()
	pkt.CtrlSlice = dep
	pkt.SR = []core.SRHop{{Egress: egress, DepSlice: dep}}
	pkt.SRIdx = 0
	s.Counters.Offloads++
	s.toHost(h, pkt)
}

// earliestCircuit finds the first slice at or after arr with a direct
// circuit to dst, scanning one full cycle; a wildcard arrival scans from
// slice 0, and without calendars the packet departs at once.
func (s *Switch) earliestCircuit(dst core.NodeID, arr core.Slice) (core.Slice, core.PortID, bool) {
	if arr.IsWildcard() {
		arr = 0
	}
	dep, eg, ok := s.ix.EarliestDirect(s.Cfg.ID, dst, arr)
	if ok && !s.cal {
		dep = core.WildcardSlice
	}
	return dep, eg, ok
}

// ctrlIn receives messages from the management network.
func (s *Switch) ctrlIn(pkt *core.Packet) { s.handleCtrl(pkt, core.NoPort) }

// handleCtrl processes control-plane messages arriving in the data path.
func (s *Switch) handleCtrl(pkt *core.Packet, inPort core.PortID) {
	switch pkt.Ctrl {
	case core.CtrlPushBack:
		// We are the sender switch: relay a copy to every connected host;
		// the original's life ends here.
		s.Counters.PushBacksRx++
		for _, h := range s.hosts {
			cp := s.Pool.NewPacket(*pkt)
			cp.Flow.DstHost = h
			cp.ClearFlowHash()
			s.toHost(h, cp)
		}
		pkt.Free()
	case core.CtrlOffload:
		// A host is returning an offloaded packet: restore it and run it
		// through forwarding with its recorded decision.
		s.Counters.OffloadsBack++
		if s.OffloadSampler != nil && pkt.OffloadedAt > 0 {
			s.OffloadSampler(s.eng.Now() - pkt.OffloadedAt)
		}
		pkt.Ctrl = core.CtrlNone
		arr := s.localSlice()
		pkt.SetArrSlice(arr)
		if pkt.SRIdx < len(pkt.SR) {
			h, _ := pkt.NextSR()
			s.forward(pkt, inPort, h.Egress, h.DepSlice, arr)
			return
		}
		s.dropPkt(pkt, core.DropNoRoute)
	case core.CtrlReport:
		// Host traffic-collection report: pending bytes toward a
		// destination node, merged into the collect() matrix. The report's
		// life ends here.
		s.tmAdd(pkt.CtrlNode, float64(pkt.Echo))
		pkt.Free()
	default:
		// Signals terminate at hosts; a switch receiving one on the data
		// path forwards it down if addressed to a local host. Unaddressed
		// control packets end here (previously they were silently garbage-
		// collected; with the pool, the free is explicit).
		if pkt.DstNode == s.Cfg.ID && pkt.Flow.DstHost != core.NoHost {
			s.toHost(pkt.Flow.DstHost, pkt)
			return
		}
		pkt.Free()
	}
}
