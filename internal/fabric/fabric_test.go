package fabric

import (
	"testing"
	"time"

	"openoptics/internal/core"
	"openoptics/internal/sim"
)

type sink struct {
	pkts  []*core.Packet
	times []int64
	eng   *sim.Engine
}

func (s *sink) Receive(pkt *core.Packet, port core.PortID) {
	s.pkts = append(s.pkts, pkt)
	s.times = append(s.times, s.eng.Now())
}

func pkt(size int32, dst core.NodeID) *core.Packet {
	return &core.Packet{Size: size, Payload: size - core.HeaderBytes,
		DstNode: dst, TTL: 16,
		Flow: core.FlowKey{SrcHost: 0, DstHost: 1, Proto: core.ProtoUDP}}
}

func TestLinkDelayAndFIFO(t *testing.T) {
	eng := sim.New()
	a, b := &sink{eng: eng}, &sink{eng: eng}
	l := NewLink(eng, Endpoint{Dev: a, Port: 0}, Endpoint{Dev: b, Port: 3}, 100e9, 500)
	// 1500 B at 100 Gbps = 120 ns serialization + 500 ns propagation.
	eng.At(0, func() {
		l.Send(a, pkt(1500, 1), 120)
		l.Send(a, pkt(1500, 1), 120) // queued behind the first
	})
	eng.Run()
	if len(b.pkts) != 2 {
		t.Fatalf("b got %d packets", len(b.pkts))
	}
	if b.times[0] != 620 {
		t.Fatalf("first arrival at %d, want 620", b.times[0])
	}
	if b.times[1] != 740 { // second serializes after the first
		t.Fatalf("second arrival at %d, want 740", b.times[1])
	}
	if l.SentAB != 2 || l.BytesAB != 3000 {
		t.Fatalf("stats AB = %d pkts %d bytes", l.SentAB, l.BytesAB)
	}
}

func TestLinkDirectionsIndependent(t *testing.T) {
	eng := sim.New()
	a, b := &sink{eng: eng}, &sink{eng: eng}
	l := NewLink(eng, Endpoint{Dev: a, Port: 0}, Endpoint{Dev: b, Port: 0}, 100e9, 100)
	eng.At(0, func() {
		l.Send(a, pkt(1500, 1), 120)
		l.Send(b, pkt(1500, 0), 120) // reverse direction: no head-of-line wait
	})
	eng.Run()
	if a.times[0] != b.times[0] {
		t.Fatalf("full duplex broken: %d vs %d", a.times[0], b.times[0])
	}
}

// stageSink is a Pipelined device: links run its stage directly, so its
// Receive must never be called.
type stageSink struct {
	sink
	ports []int64
}

func (s *stageSink) Receive(*core.Packet, core.PortID) { panic("link delivered past the pipeline") }

func (s *stageSink) Pipeline() (int64, sim.Class, sim.Action) {
	return 600, sim.ClassSwitchIngress, s
}

func (s *stageSink) RunEvent(arg any, v int64) {
	s.sink.Receive(arg.(*core.Packet), core.PortID(v))
	s.ports = append(s.ports, v)
}

func TestLinkSchedulesPipelineStage(t *testing.T) {
	eng := sim.New()
	a, b := &sink{eng: eng}, &stageSink{sink: sink{eng: eng}}
	l := NewLink(eng, Endpoint{Dev: a, Port: 0}, Endpoint{Dev: b, Port: 3}, 100e9, 500)
	eng.At(0, func() { l.Send(a, pkt(1500, 1), 120) })
	eng.Run()
	// 120 ns serialization + 500 ns propagation + 600 ns pipeline, in one
	// event under the stage's class, with the receiving port as the scalar.
	if len(b.times) != 1 || b.times[0] != 1220 || b.ports[0] != 3 {
		t.Fatalf("stage ran at %v on ports %v, want [1220] on [3]", b.times, b.ports)
	}
	for _, cs := range eng.ProfileStats() {
		if cs.Class == sim.ClassLinkDeliver && cs.Count != 0 {
			t.Fatalf("%d link.deliver events, want 0", cs.Count)
		}
	}
}

func TestLinkCutThrough(t *testing.T) {
	eng := sim.New()
	a, b := &sink{eng: eng}, &sink{eng: eng}
	l := NewLink(eng, Endpoint{Dev: a, Port: 0}, Endpoint{Dev: b, Port: 0}, 100e9, 500)
	eng.At(0, func() { l.sendCutThrough(a, pkt(1500, 1), 0) })
	eng.Run()
	if b.times[0] != 500 { // no serialization in the arrival time
		t.Fatalf("cut-through arrival at %d, want 500", b.times[0])
	}
}

func opticalRig(t *testing.T) (*sim.Engine, *OpticalFabric, [3]*sink, [3]*Link) {
	t.Helper()
	eng := sim.New()
	f := NewOpticalFabric(eng)
	f.CutThroughDelay = 100
	var sinks [3]*sink
	var links [3]*Link
	for i := 0; i < 3; i++ {
		sinks[i] = &sink{eng: eng}
		links[i] = NewLink(eng, Endpoint{Dev: sinks[i], Port: 0},
			Endpoint{Dev: f, Port: core.PortID(i)}, 100e9, 100)
		f.Attach(core.NodeID(i), 0, links[i])
	}
	return eng, f, sinks, links
}

func TestOpticalFabricSlicedForwarding(t *testing.T) {
	eng, f, sinks, _ := opticalRig(t)
	sched := &core.Schedule{NumSlices: 2, SliceDuration: 100 * time.Microsecond,
		Guard: 200 * time.Nanosecond, Circuits: []core.Circuit{
			{A: 0, PortA: 0, B: 1, PortB: 0, Slice: 0},
			{A: 0, PortA: 0, B: 2, PortB: 0, Slice: 1},
		}}
	if err := f.ApplySchedule(sched); err != nil {
		t.Fatal(err)
	}
	// Slice 0 (after guard): port 0 connects to node 1.
	eng.At(10_000, func() { f.Receive(pkt(1000, 1), 0) })
	// Slice 1: port 0 connects to node 2.
	eng.At(110_000, func() { f.Receive(pkt(1000, 2), 0) })
	eng.Run()
	if len(sinks[1].pkts) != 1 || sinks[1].pkts[0].DstNode != 1 {
		t.Fatalf("node1 got %d packets", len(sinks[1].pkts))
	}
	if len(sinks[2].pkts) != 1 || sinks[2].pkts[0].DstNode != 2 {
		t.Fatalf("node2 got %d packets", len(sinks[2].pkts))
	}
	if f.Forwarded != 2 {
		t.Fatalf("forwarded = %d", f.Forwarded)
	}
}

func TestOpticalFabricGuardDrop(t *testing.T) {
	eng, f, sinks, _ := opticalRig(t)
	sched := &core.Schedule{NumSlices: 2, SliceDuration: 100 * time.Microsecond,
		Guard: 500 * time.Nanosecond, Circuits: []core.Circuit{
			{A: 0, PortA: 0, B: 1, PortB: 0, Slice: 0},
		}}
	if err := f.ApplySchedule(sched); err != nil {
		t.Fatal(err)
	}
	// Arrive inside the guard window at the head of slice 0's second
	// occurrence (t=200µs..+500ns).
	eng.At(200_200, func() { f.Receive(pkt(1000, 1), 0) })
	eng.Run()
	if len(sinks[1].pkts) != 0 {
		t.Fatal("guard-window packet forwarded")
	}
	if f.DropsGuard != 1 {
		t.Fatalf("DropsGuard = %d", f.DropsGuard)
	}
}

func TestOpticalFabricNoCircuitDrop(t *testing.T) {
	eng, f, sinks, _ := opticalRig(t)
	sched := &core.Schedule{NumSlices: 2, SliceDuration: 100 * time.Microsecond,
		Circuits: []core.Circuit{{A: 0, PortA: 0, B: 1, PortB: 0, Slice: 0}}}
	if err := f.ApplySchedule(sched); err != nil {
		t.Fatal(err)
	}
	// During slice 1, port 0 has no circuit: drop.
	eng.At(150_000, func() { f.Receive(pkt(1000, 1), 0) })
	// Port 2 never has a circuit.
	eng.At(50_000, func() { f.Receive(pkt(1000, 0), 2) })
	eng.Run()
	if f.DropsNoCircuit != 2 {
		t.Fatalf("DropsNoCircuit = %d, want 2", f.DropsNoCircuit)
	}
	if len(sinks[1].pkts) != 0 {
		t.Fatal("packet leaked through a down circuit")
	}
}

func TestOpticalFabricStaticCircuits(t *testing.T) {
	eng, f, sinks, _ := opticalRig(t)
	sched := &core.Schedule{NumSlices: 1, Circuits: []core.Circuit{
		{A: 0, PortA: 0, B: 2, PortB: 0, Slice: core.WildcardSlice}}}
	if err := f.ApplySchedule(sched); err != nil {
		t.Fatal(err)
	}
	eng.At(1_000, func() { f.Receive(pkt(700, 2), 0) })
	eng.At(2_000, func() { f.Receive(pkt(700, 0), 2) }) // duplex reverse
	eng.Run()
	if len(sinks[2].pkts) != 1 || len(sinks[0].pkts) != 1 {
		t.Fatalf("static circuit carried %d/%d", len(sinks[2].pkts), len(sinks[0].pkts))
	}
}

func TestOpticalFabricRejectsUnattached(t *testing.T) {
	eng := sim.New()
	f := NewOpticalFabric(eng)
	sched := &core.Schedule{NumSlices: 1, Circuits: []core.Circuit{
		{A: 0, PortA: 0, B: 1, PortB: 0, Slice: 0}}}
	if err := f.ApplySchedule(sched); err == nil {
		t.Fatal("unattached endpoints accepted")
	}
}

func TestElectricalFabricRoutesByNode(t *testing.T) {
	eng := sim.New()
	f := NewElectricalFabric(eng)
	f.PipelineDelay = 100
	var sinks [2]*sink
	for i := 0; i < 2; i++ {
		sinks[i] = &sink{eng: eng}
		l := NewLink(eng, Endpoint{Dev: f, Port: 0},
			Endpoint{Dev: sinks[i], Port: 0}, 100e9, 100)
		f.Attach(core.NodeID(i), l)
	}
	eng.At(0, func() {
		f.Receive(pkt(1500, 1), 0)
		f.Receive(pkt(1500, 0), 0)
		f.Receive(pkt(1500, 9), 0) // unknown node
	})
	eng.Run()
	if len(sinks[1].pkts) != 1 || len(sinks[0].pkts) != 1 {
		t.Fatalf("delivery = %d/%d", len(sinks[0].pkts), len(sinks[1].pkts))
	}
	if f.DropsNoRoute != 1 {
		t.Fatalf("DropsNoRoute = %d", f.DropsNoRoute)
	}
}

func TestElectricalFabricDropTail(t *testing.T) {
	eng := sim.New()
	f := NewElectricalFabric(eng)
	f.QueueCapBytes = 3_000
	s := &sink{eng: eng}
	l := NewLink(eng, Endpoint{Dev: f, Port: 0}, Endpoint{Dev: s, Port: 0}, 100e9, 100)
	f.Attach(1, l)
	eng.At(0, func() {
		for i := 0; i < 10; i++ {
			f.Receive(pkt(1500, 1), 0)
		}
	})
	eng.Run()
	if f.DropsQueue == 0 {
		t.Fatal("no drop-tail at the queue cap")
	}
	if len(s.pkts) == 0 {
		t.Fatal("everything dropped")
	}
	if f.MaxQueueBytes(1) > 3_000 {
		t.Fatalf("queue exceeded cap: %d", f.MaxQueueBytes(1))
	}
}
