package transport

import (
	"testing"
	"time"

	"openoptics/internal/core"
	"openoptics/internal/fabric"
	"openoptics/internal/hostsim"
	"openoptics/internal/sim"
)

// wire is a lossy/delaying pipe connecting two hosts back to back —
// enough network to exercise the transport without switches.
type wire struct {
	eng   *sim.Engine
	peers map[core.HostID]*hostsim.Host
	delay int64
	// dropEvery drops every n-th data packet (0 = lossless).
	dropEvery int
	// reorderEvery swaps every n-th data packet with its successor.
	reorderEvery int
	count        int
	held         *core.Packet
	heldAfter    int
	Dropped      int
}

func (w *wire) Receive(pkt *core.Packet, port core.PortID) {
	dst, ok := w.peers[pkt.Flow.DstHost]
	if !ok {
		return
	}
	if pkt.Flow.Proto == core.ProtoTCP && !pkt.HasFlag(core.FlagACK) && pkt.Payload > 0 {
		w.count++
		if w.dropEvery > 0 && w.count%w.dropEvery == 0 {
			w.Dropped++
			return
		}
		if w.reorderEvery > 0 {
			if w.held != nil {
				// Release the displaced packet after four successors so
				// the receiver emits enough dup-acks to cross a dupack
				// threshold of 3 (but not 7).
				w.heldAfter++
				if w.heldAfter >= 4 {
					held := w.held
					w.held = nil
					w.heldAfter = 0
					w.eng.After(w.delay, func() { dst.Receive(pkt, 0) })
					w.eng.After(w.delay+1, func() { dst.Receive(held, 0) })
					return
				}
			} else if w.count%w.reorderEvery == 0 {
				w.held = pkt
				w.heldAfter = 0
				return
			}
		}
	}
	w.eng.After(w.delay, func() { dst.Receive(pkt, 0) })
}

type pair struct {
	eng    *sim.Engine
	w      *wire
	hosts  [2]*hostsim.Host
	stacks [2]*Stack
}

func newPair(cfg TCPConfig, mutate func(*wire)) *pair {
	eng := sim.New()
	w := &wire{eng: eng, peers: make(map[core.HostID]*hostsim.Host), delay: 5_000}
	if mutate != nil {
		mutate(w)
	}
	p := &pair{eng: eng, w: w}
	conns := new(Conns)
	for i := 0; i < 2; i++ {
		h := hostsim.New(eng, hostsim.Config{ID: core.HostID(i), Node: core.NodeID(i)})
		link := fabric.NewLink(eng,
			fabric.Endpoint{Dev: h, Port: 0},
			fabric.Endpoint{Dev: w, Port: 0}, 100e9, 10)
		h.AttachLink(link)
		p.hosts[i] = h
		p.stacks[i] = NewStack(eng, h, conns, cfg)
		w.peers[core.HostID(i)] = h
	}
	return p
}

func flowKey() core.FlowKey {
	return core.FlowKey{SrcHost: 0, DstHost: 1, SrcPort: 1000, DstPort: 80, Proto: core.ProtoTCP}
}

func TestTCPTransferLossless(t *testing.T) {
	p := newPair(TCPConfig{}, nil)
	var done *FlowComplete
	p.stacks[0].OnFlowComplete = func(fc FlowComplete) { done = &fc }
	conn := p.stacks[0].OpenTCP(flowKey(), 0, 1, 1_000_000)
	p.eng.RunUntil(int64(100 * time.Millisecond))
	if !conn.Done() {
		t.Fatalf("transfer incomplete: %d acked", conn.Acked())
	}
	if done == nil || done.Bytes != 1_000_000 || done.FCT() <= 0 {
		t.Fatalf("completion = %+v", done)
	}
	if conn.Retransmissions != 0 {
		t.Fatalf("lossless transfer retransmitted %d", conn.Retransmissions)
	}
}

// TestReusedFiveTupleIsNewConnection: a flow opened on the five-tuple of
// a finished one is a connection of its own. It must deliver its own
// bytes from offset 0 in a plausible time, not inherit the earlier
// stream's receive offset and "complete" on the first ACK.
func TestReusedFiveTupleIsNewConnection(t *testing.T) {
	p := newPair(TCPConfig{}, nil)
	var done []FlowComplete
	p.stacks[0].OnFlowComplete = func(fc FlowComplete) { done = append(done, fc) }
	first := p.stacks[0].OpenTCP(flowKey(), 0, 1, 1_000_000)
	p.eng.RunUntil(int64(50 * time.Millisecond))
	if !first.Done() {
		t.Fatalf("first flow incomplete: %d acked", first.Acked())
	}
	second := p.stacks[0].OpenTCP(flowKey(), 0, 1, 200_000)
	p.eng.RunUntil(int64(100 * time.Millisecond))
	if !second.Done() || second.Acked() != 200_000 || second.rcv.expected != 200_000 {
		t.Fatalf("second flow: done %v, acked %d, received %d; want 200000 each",
			second.Done(), second.Acked(), second.rcv.expected)
	}
	if len(done) != 2 || done[1].Bytes != 200_000 {
		t.Fatalf("completions = %+v", done)
	}
	// 200 KB serialize for 16 µs at 100 Gbps, and the last ACK needs a
	// round trip over the 5 µs wire.
	if fct := done[1].FCT(); fct < 26_000 || fct > done[0].FCT() {
		t.Fatalf("second FCT %d ns, want within [26000, %d] (first flow's FCT)", fct, done[0].FCT())
	}
}

func TestTCPRecoversFromLoss(t *testing.T) {
	p := newPair(TCPConfig{RTO: 2_000_000}, func(w *wire) { w.dropEvery = 50 })
	conn := p.stacks[0].OpenTCP(flowKey(), 0, 1, 500_000)
	p.eng.RunUntil(int64(400 * time.Millisecond))
	if !conn.Done() {
		t.Fatalf("transfer incomplete under 2%% loss: %d acked", conn.Acked())
	}
	if conn.Retransmissions == 0 {
		t.Fatal("no retransmissions despite drops")
	}
	if p.w.Dropped == 0 {
		t.Fatal("wire dropped nothing")
	}
}

func TestTCPDupAckThreshold(t *testing.T) {
	// With reordering but no loss, a low dupack threshold triggers
	// spurious fast retransmits; a high one does not (the Fig. 9 knob).
	run := func(thresh int) (uint64, uint64) {
		p := newPair(TCPConfig{DupAckThreshold: thresh, RTO: 50_000_000},
			func(w *wire) { w.reorderEvery = 8 })
		conn := p.stacks[0].OpenTCP(flowKey(), 0, 1, 400_000)
		p.eng.RunUntil(int64(300 * time.Millisecond))
		if !conn.Done() {
			t.Fatalf("thresh %d: incomplete (%d acked)", thresh, conn.Acked())
		}
		return conn.Retransmissions, p.stacks[1].ReorderEvents
	}
	retx3, reorders3 := run(3)
	retx7, _ := run(7)
	if reorders3 == 0 {
		t.Fatal("receiver saw no reordering")
	}
	if retx7 >= retx3 && retx3 > 0 {
		t.Fatalf("dupack=7 retransmits (%d) should be below dupack=3 (%d)", retx7, retx3)
	}
	if retx3 == 0 {
		t.Fatal("dupack=3 should spuriously retransmit under reordering")
	}
}

func TestTCPTrimmedPacketTriggersRecovery(t *testing.T) {
	// A trimmed (payload-less) packet acts as a loss signal: receiver
	// dup-acks, sender retransmits the payload.
	p := newPair(TCPConfig{RTO: 5_000_000}, nil)
	trimOnce := true
	inner := p.w
	p.hosts[1].Handler = func(pkt *core.Packet) {
		if trimOnce && pkt.Payload > 0 && pkt.Seq > 0 {
			trimOnce = false
			pkt.Size = core.HeaderBytes
			pkt.Payload = 0
			pkt.Flags |= core.FlagTrimmed
		}
		p.stacks[1].onReceive(pkt)
	}
	_ = inner
	conn := p.stacks[0].OpenTCP(flowKey(), 0, 1, 200_000)
	p.eng.RunUntil(int64(200 * time.Millisecond))
	if !conn.Done() {
		t.Fatalf("transfer incomplete after trim: %d acked", conn.Acked())
	}
	if conn.Retransmissions == 0 {
		t.Fatal("trim did not provoke a retransmission")
	}
}

func TestTCPSegmentQueueBackpressure(t *testing.T) {
	// Tiny segment queue: the conn must resume via NotifySpace and still
	// complete.
	eng := sim.New()
	w := &wire{eng: eng, peers: make(map[core.HostID]*hostsim.Host), delay: 1_000}
	var hosts [2]*hostsim.Host
	var stacks [2]*Stack
	conns := new(Conns)
	for i := 0; i < 2; i++ {
		h := hostsim.New(eng, hostsim.Config{ID: core.HostID(i), Node: core.NodeID(i),
			SegmentQueueBytes: 3_000})
		link := fabric.NewLink(eng, fabric.Endpoint{Dev: h, Port: 0},
			fabric.Endpoint{Dev: w, Port: 0}, 100e9, 10)
		h.AttachLink(link)
		hosts[i] = h
		stacks[i] = NewStack(eng, h, conns, TCPConfig{})
		w.peers[core.HostID(i)] = h
	}
	conn := stacks[0].OpenTCP(flowKey(), 0, 1, 300_000)
	eng.RunUntil(int64(200 * time.Millisecond))
	if !conn.Done() {
		t.Fatalf("incomplete with tiny segment queue: %d acked", conn.Acked())
	}
	if hosts[0].Counters.RejectedFull == 0 {
		t.Fatal("segment queue never pushed back — test not exercising backpressure")
	}
}

func TestUDPEchoRTT(t *testing.T) {
	p := newPair(TCPConfig{}, nil)
	var rtts []int64
	p.stacks[0].OnUDPRtt = func(flow core.FlowKey, rtt int64) { rtts = append(rtts, rtt) }
	flow := core.FlowKey{SrcHost: 0, DstHost: 1, SrcPort: 7, DstPort: 9, Proto: core.ProtoUDP}
	p.stacks[0].SendUDP(flow, 0, 1, 512, true)
	p.eng.RunUntil(int64(10 * time.Millisecond))
	if len(rtts) != 1 {
		t.Fatalf("rtts = %v", rtts)
	}
	// 2x wire delay (5 µs) plus serialization: ~10 µs.
	if rtts[0] < 10_000 || rtts[0] > 30_000 {
		t.Fatalf("rtt = %d ns, want ~10 µs", rtts[0])
	}
}

func TestCwndGrowthAndCap(t *testing.T) {
	// A lossless 2 MB flow grows its window to the cap and holds it there.
	p := newPair(TCPConfig{}, nil)
	conn := p.stacks[0].OpenTCP(flowKey(), 0, 1, 2_000_000)
	var capped bool
	for us := int64(1); us <= 2_000; us++ {
		p.eng.RunUntil(us * int64(time.Microsecond))
		switch {
		case conn.cc.cwnd > maxCwnd:
			t.Fatalf("cwnd %f exceeded the %g cap", conn.cc.cwnd, maxCwnd)
		case conn.cc.cwnd == maxCwnd:
			capped = true
		case capped:
			t.Fatalf("cwnd fell to %f after reaching the cap", conn.cc.cwnd)
		}
	}
	if !conn.Done() {
		t.Fatalf("incomplete: %d", conn.Acked())
	}
	if !capped {
		t.Fatalf("cwnd %f never reached the %g cap", conn.cc.cwnd, maxCwnd)
	}
}
