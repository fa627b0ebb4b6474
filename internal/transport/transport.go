// Package transport implements the endpoint transport layer the case
// studies exercise: a simulator TCP with slow start, AIMD congestion
// avoidance, fast retransmit with a configurable dupack threshold (the
// knob turned in Case II / Fig. 9), RTO recovery, and packet-reordering
// accounting, which runs as classic TCP or as TDTCP (tdtcp.go); plus UDP
// with echo support for RTT probing (Fig. 13).
package transport

import (
	"fmt"

	"openoptics/internal/core"
	"openoptics/internal/hostsim"
	"openoptics/internal/sim"
)

// The segment size, the initial congestion window and the window cap of
// every connection.
const (
	mss      int64   = core.MaxPayload // maximum segment payload, bytes
	initCwnd float64 = 10              // segments
	maxCwnd  float64 = 512             // segments
)

// TCPConfig tunes the simulated TCP stack.
type TCPConfig struct {
	// DupAckThreshold triggers fast retransmit (default 3; Case II
	// raises it to 5 to tolerate optical-path reordering).
	DupAckThreshold int
	// RTO is the retransmission timeout in ns (default 1 ms).
	RTO int64
	// TDTCPDivisions enables Time-division TCP with that many divisions
	// (normally the optical cycle length); 0 or 1 keeps classic
	// single-state TCP. See tdtcp.go.
	TDTCPDivisions int
	// TDTCPPeriodNs is one division's duration (normally the slice
	// duration; default 100 µs).
	TDTCPPeriodNs int64
}

// FlowComplete reports a finished TCP flow.
type FlowComplete struct {
	Flow  core.FlowKey
	Bytes int64
	Start int64
	End   int64
}

// FCT returns the flow completion time in ns.
func (f FlowComplete) FCT() int64 { return f.End - f.Start }

// Counters aggregates stack-wide transport behaviour for telemetry.
type Counters struct {
	// Retransmissions counts all resent segments (fast retransmit + RTO).
	Retransmissions uint64
	// FastRetransmits counts dupack-triggered retransmissions.
	FastRetransmits uint64
	// RTOFires counts retransmission-timeout expirations.
	RTOFires uint64
	// DivisionSwitches counts TDTCP segment emissions whose active
	// division differs from the previous emission on the same connection.
	DivisionSwitches uint64
}

// Conns is the connection table the stacks of one network share. Each
// TCP connection's index in it rides in its data and ACK packets
// (core.Packet.Conn), so the sender finds its Conn, and the receiver the
// stream state, with one slice read. Nothing is keyed by the five-tuple:
// a flow that reuses the five-tuple of an earlier one is a new connection.
type Conns struct {
	list []*Conn // list[0] stays nil: Packet.Conn 0 names no connection
}

// add registers c and returns its index.
func (t *Conns) add(c *Conn) int32 {
	if t.list == nil {
		t.list = append(t.list, nil)
	}
	t.list = append(t.list, c)
	return int32(len(t.list) - 1)
}

// of returns the connection a packet belongs to, or nil.
func (t *Conns) of(pkt *core.Packet) *Conn {
	if i := pkt.Conn; i > 0 && int(i) < len(t.list) {
		return t.list[i]
	}
	return nil
}

// Stack is one host's transport stack. It owns the host's receive handler.
type Stack struct {
	eng   *sim.Engine
	host  *hostsim.Host
	conns *Conns

	// The TCPConfig, defaults resolved by NewStack.
	dupThresh int
	rto       int64
	ndiv      int
	period    int64
	// grown[d] is the number of the last cumulative ACK that grew
	// division d's window (acks counts them), so an ACK covering several
	// segments of one division grows it once. Sized only under TDTCP.
	grown []uint64
	acks  uint64

	// Pool, when set, backs every packet this stack emits (segments, ACKs,
	// datagrams, echo replies) with slab storage. Nil is valid — packets
	// fall back to the heap, which keeps stack-only unit tests pool-free.
	Pool *core.PacketPool

	// OnFlowComplete fires when a locally originated flow finishes.
	OnFlowComplete func(FlowComplete)
	// OnUDPRtt fires for returned echo probes with the measured RTT.
	OnUDPRtt func(flow core.FlowKey, rttNs int64)

	// ReorderEvents counts out-of-order data arrivals across all
	// receivers on this stack (Fig. 9 b).
	ReorderEvents uint64

	// Counters aggregates retransmission and TDTCP behaviour across all
	// connections on this stack.
	Counters Counters

	nextID uint64
}

// NewStack attaches a transport stack to the host. Every stack that
// exchanges TCP traffic with it must share its connection table.
func NewStack(eng *sim.Engine, host *hostsim.Host, conns *Conns, cfg TCPConfig) *Stack {
	s := &Stack{
		eng: eng, host: host, conns: conns,
		dupThresh: 3, rto: 1_000_000, ndiv: 1, period: 100_000,
	}
	if cfg.DupAckThreshold > 0 {
		s.dupThresh = cfg.DupAckThreshold
	}
	if cfg.RTO > 0 {
		s.rto = cfg.RTO
	}
	if cfg.TDTCPDivisions > 1 {
		s.ndiv = cfg.TDTCPDivisions
		s.grown = make([]uint64, s.ndiv)
	}
	if cfg.TDTCPPeriodNs > 0 {
		s.period = cfg.TDTCPPeriodNs
	}
	host.Handler = s.onReceive
	return s
}

// Conn is one TCP connection: the sender's state, and the stream state
// of the receiving stack (rcv).
type Conn struct {
	stack *Stack
	flow  core.FlowKey
	id    int32 // index in the shared Conns
	rcv   rcvState
	// flowHash caches flow.Hash(), which every emitted segment folds into
	// its packet ID.
	flowHash uint64
	// endpoints
	srcNode, dstNode core.NodeID

	total   int64
	nextSeq int64
	acked   int64
	start   int64
	done    bool

	// cc is division 0's congestion state: the connection's only one
	// under classic TCP. divs holds the other divisions' under TDTCP and
	// is nil with one division.
	cc   ccState
	divs *divisions

	// RTO bookkeeping: one timer pending at a time, validated against
	// the last progress timestamp when it fires.
	lastProgress int64
	rtoArmed     bool

	// Retransmissions counts segments resent by fast retransmit or RTO.
	Retransmissions uint64
}

// OpenTCP starts a sender transferring totalBytes to the destination; FCT
// is reported through OnFlowComplete.
func (s *Stack) OpenTCP(flow core.FlowKey, srcNode, dstNode core.NodeID, totalBytes int64) *Conn {
	c := &Conn{
		stack: s, flow: flow, flowHash: flow.Hash(), srcNode: srcNode, dstNode: dstNode,
		total: totalBytes, start: s.eng.Now(),
		cc: ccState{cwnd: initCwnd, ssthresh: maxCwnd},
	}
	if s.ndiv > 1 {
		c.divs = &divisions{more: make([]ccState, s.ndiv-1), last: -1}
		for i := range c.divs.more {
			c.divs.more[i] = c.cc
		}
	}
	c.id = s.conns.add(c)
	c.trySend()
	c.armRTO()
	return c
}

// Acked returns the cumulative acknowledged bytes.
func (c *Conn) Acked() int64 { return c.acked }

// Done reports flow completion.
func (c *Conn) Done() bool { return c.done }

func (c *Conn) inflight() int64 { return c.nextSeq - c.acked }

func (c *Conn) window() int64 {
	return int64(c.state(c.current()).cwnd * float64(mss))
}

// trySend pushes segments while the window and segment queue allow.
func (c *Conn) trySend() {
	if c.done {
		return
	}
	for c.nextSeq < c.total && c.inflight() < c.window() {
		if !c.emit(c.nextSeq) {
			// Segment queue full: resume when space frees.
			c.stack.host.NotifySpace(func() { c.trySend() })
			return
		}
		c.stamp(false)
		c.nextSeq = min(c.nextSeq+mss, c.total)
	}
}

// emit sends the segment starting at seq; returns false on backpressure.
func (c *Conn) emit(seq int64) bool {
	payload := min(mss, c.total-seq)
	s := c.stack
	s.nextID++
	pkt := s.Pool.NewPacket(core.Packet{
		ID:      s.nextID ^ c.flowHash,
		Flow:    c.flow,
		SrcNode: c.srcNode,
		DstNode: c.dstNode,
		Size:    int32(payload) + core.HeaderBytes,
		Payload: int32(payload),
		Seq:     uint32(seq),
		Conn:    c.id,
		Created: s.eng.Now(),
		TTL:     core.DefaultTTL,
	})
	return s.host.Send(pkt)
}

// armRTO keeps exactly one pending timeout event per connection: when it
// fires, it checks whether any progress happened during the window and
// either re-arms for the remainder or declares a timeout. This bounds the
// event-queue footprint regardless of the ACK rate.
func (c *Conn) armRTO() {
	c.lastProgress = c.stack.eng.Now()
	if c.rtoArmed || c.done {
		return
	}
	c.rtoArmed = true
	c.scheduleRTOCheck(c.stack.rto)
}

func (c *Conn) scheduleRTOCheck(d int64) {
	c.stack.eng.AfterEvent(d, sim.ClassTransportRTO, (*rtoCheck)(c), nil, 0)
}

// rtoCheck is the pending retransmission timeout of a connection, as a
// sim.Action: scheduling it allocates nothing.
type rtoCheck Conn

func (a *rtoCheck) RunEvent(any, int64) {
	c := (*Conn)(a)
	if c.done {
		c.rtoArmed = false
		return
	}
	rto := c.stack.rto
	idle := c.stack.eng.Now() - c.lastProgress
	if idle < rto {
		c.scheduleRTOCheck(rto - idle)
		return
	}
	// Timeout: collapse the window of the division that sent the hole and
	// resend it.
	st := c.state(c.hole())
	st.halve()
	st.cwnd = 1
	st.dupacks = 0
	st.inFR = false
	c.stack.Counters.RTOFires++
	c.resend()
	c.lastProgress = c.stack.eng.Now()
	c.scheduleRTOCheck(rto)
}

// resend re-emits the segment at the cumulative ACK.
func (c *Conn) resend() {
	c.Retransmissions++
	c.stack.Counters.Retransmissions++
	c.emit(c.acked)
	c.stamp(true)
}

// onAck handles a cumulative ACK for this connection.
func (c *Conn) onAck(ack int64) {
	if c.done {
		return
	}
	if ack > c.acked {
		prev := c.acked
		c.acked = ack
		c.credit(prev)
		c.armRTO()
		if c.acked >= c.total {
			c.done = true
			if c.stack.OnFlowComplete != nil {
				c.stack.OnFlowComplete(FlowComplete{
					Flow: c.flow, Bytes: c.total, Start: c.start, End: c.stack.eng.Now(),
				})
			}
			return
		}
		c.trySend()
		return
	}
	// Duplicate ACK: it counts against the division that sent the hole.
	st := c.state(c.hole())
	st.dupacks++
	if !st.inFR && st.dupacks >= c.stack.dupThresh {
		// Fast retransmit.
		st.inFR = true
		st.halve()
		st.cwnd = st.ssthresh
		c.stack.Counters.FastRetransmits++
		c.resend()
	}
}

// rcvState tracks one incoming TCP stream.
type rcvState struct {
	expected int64
	// ooo maps seq -> payload len of out-of-order segments; allocated on
	// the first one.
	ooo map[int64]int64
}

// onReceive is the host's packet handler: TCP data, TCP ACKs, and UDP.
func (s *Stack) onReceive(pkt *core.Packet) {
	switch pkt.Flow.Proto {
	case core.ProtoTCP:
		c := s.conns.of(pkt)
		if c == nil {
			return
		}
		if pkt.HasFlag(core.FlagACK) {
			c.onAck(int64(pkt.Ack))
			return
		}
		s.onTCPData(pkt, &c.rcv)
	case core.ProtoUDP:
		s.onUDP(pkt)
	}
}

func (s *Stack) onTCPData(pkt *core.Packet, r *rcvState) {
	seq := int64(pkt.Seq)
	if pkt.HasFlag(core.FlagTrimmed) || pkt.Payload == 0 {
		// Trimmed header: data lost in fabric; dup-ACK to provoke
		// retransmission.
		s.sendAck(pkt, r.expected)
		return
	}
	switch {
	case seq == r.expected:
		r.expected += int64(pkt.Payload)
		// Absorb any buffered continuation.
		for {
			l, ok := r.ooo[r.expected]
			if !ok {
				break
			}
			delete(r.ooo, r.expected)
			r.expected += l
		}
	case seq > r.expected:
		s.ReorderEvents++
		if r.ooo == nil {
			r.ooo = make(map[int64]int64)
		}
		if _, dup := r.ooo[seq]; !dup {
			r.ooo[seq] = int64(pkt.Payload)
		}
	default:
		// Stale retransmission: ack again.
	}
	s.sendAck(pkt, r.expected)
}

func (s *Stack) sendAck(data *core.Packet, cum int64) {
	s.nextID++
	ack := s.Pool.NewPacket(core.Packet{
		ID:      s.nextID ^ 0xac4,
		Flow:    data.Flow.Reverse(),
		SrcNode: data.DstNode,
		DstNode: data.SrcNode,
		Size:    core.HeaderBytes,
		Ack:     uint32(cum),
		Flags:   core.FlagACK,
		Conn:    data.Conn,
		Created: s.eng.Now(),
		TTL:     core.DefaultTTL,
	})
	s.host.Send(ack)
}

// SendUDP emits one UDP datagram; with echo=true the peer stack reflects
// it and OnUDPRtt fires with the measured RTT.
func (s *Stack) SendUDP(flow core.FlowKey, srcNode, dstNode core.NodeID, payload int32, echo bool) bool {
	if flow.Proto != core.ProtoUDP {
		panic(fmt.Sprintf("transport: SendUDP with proto %d", flow.Proto))
	}
	s.nextID++
	pkt := s.Pool.NewPacket(core.Packet{
		ID:      s.nextID ^ 0xdd9,
		Flow:    flow,
		SrcNode: srcNode,
		DstNode: dstNode,
		Size:    payload + core.HeaderBytes,
		Payload: payload,
		Created: s.eng.Now(),
		Echo:    s.eng.Now(),
		TTL:     core.DefaultTTL,
	})
	if echo {
		pkt.Flags |= core.FlagEcho
	}
	return s.host.Send(pkt)
}

func (s *Stack) onUDP(pkt *core.Packet) {
	if pkt.HasFlag(core.FlagEcho) {
		if pkt.HasFlag(core.FlagACK) {
			// Returned probe.
			if s.OnUDPRtt != nil {
				s.OnUDPRtt(pkt.Flow, s.eng.Now()-pkt.Echo)
			}
			return
		}
		// Reflect.
		s.nextID++
		rep := s.Pool.NewPacket(core.Packet{
			ID:      s.nextID ^ 0xec0,
			Flow:    pkt.Flow.Reverse(),
			SrcNode: pkt.DstNode,
			DstNode: pkt.SrcNode,
			Size:    pkt.Size,
			Payload: pkt.Payload,
			Flags:   core.FlagEcho | core.FlagACK,
			Echo:    pkt.Echo,
			Created: s.eng.Now(),
			TTL:     core.DefaultTTL,
		})
		s.host.Send(rep)
	}
}
