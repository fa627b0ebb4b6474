// Package mininet is the educational toolkit of §5.3 reimagined for this
// repository: a *live* virtual network that runs the OpenOptics stack as
// concurrent goroutine devices exchanging real byte frames over channels,
// against a paced virtual clock. Where the discrete-event backend computes
// what would happen, this backend actually moves bytes through the same
// time-flow tables — the closest analogue of running the BMv2 pipeline in
// Mininet without any network hardware.
//
// The toolkit deliberately trades scale for realism of execution: a
// handful of nodes, slices in the hundreds of microseconds, every packet a
// real []byte with an encoded header, every device a goroutine. It shares
// the abstractions (core.Table, core.Schedule) and the controller
// compilation pipeline with the simulator backend, which is the point:
// the same deployment artifacts run on both.
package mininet

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"openoptics/internal/controller"
	"openoptics/internal/core"
)

// frameHeader is the wire encoding of the simulator's packet metadata:
// src/dst node, src/dst host, ports, proto, seq — 24 bytes.
const frameHeader = 24

// Frame is one packet on the virtual wire.
type Frame []byte

// EncodeFrame packs addressing plus payload into a frame.
func EncodeFrame(srcNode, dstNode core.NodeID, flow core.FlowKey, seq uint32, payload []byte) Frame {
	f := make(Frame, frameHeader+len(payload))
	binary.BigEndian.PutUint32(f[0:], uint32(srcNode))
	binary.BigEndian.PutUint32(f[4:], uint32(dstNode))
	binary.BigEndian.PutUint32(f[8:], uint32(flow.SrcHost))
	binary.BigEndian.PutUint32(f[12:], uint32(flow.DstHost))
	binary.BigEndian.PutUint16(f[16:], flow.SrcPort)
	binary.BigEndian.PutUint16(f[18:], flow.DstPort)
	f[20] = byte(flow.Proto)
	// f[21..23] reserved
	binary.BigEndian.PutUint16(f[22:], uint16(seq))
	copy(f[frameHeader:], payload)
	return f
}

// SrcNode, DstNode and Flow decode the addressing fields.
func (f Frame) SrcNode() core.NodeID { return core.NodeID(binary.BigEndian.Uint32(f[0:])) }

// DstNode returns the destination endpoint node.
func (f Frame) DstNode() core.NodeID { return core.NodeID(binary.BigEndian.Uint32(f[4:])) }

// Flow returns the five-tuple.
func (f Frame) Flow() core.FlowKey {
	return core.FlowKey{
		SrcHost: core.HostID(binary.BigEndian.Uint32(f[8:])),
		DstHost: core.HostID(binary.BigEndian.Uint32(f[12:])),
		SrcPort: binary.BigEndian.Uint16(f[16:]),
		DstPort: binary.BigEndian.Uint16(f[18:]),
		Proto:   core.Proto(f[20]),
	}
}

// Payload returns the data bytes.
func (f Frame) Payload() []byte { return f[frameHeader:] }

// Clock is the paced virtual clock all devices share: virtual nanoseconds
// advance Scale× slower than wall time, so microsecond slices become
// schedulable with goroutines.
type Clock struct {
	start time.Time
	// Scale is wall-nanoseconds per virtual nanosecond (default 100).
	Scale int64
}

// NewClock starts a clock at virtual time zero.
func NewClock(scale int64) *Clock {
	if scale <= 0 {
		scale = 100
	}
	return &Clock{start: time.Now(), Scale: scale}
}

// Now returns the current virtual time in ns.
func (c *Clock) Now() int64 { return time.Since(c.start).Nanoseconds() / c.Scale }

// SleepUntil blocks until virtual time t.
func (c *Clock) SleepUntil(t int64) {
	wall := c.start.Add(time.Duration(t * c.Scale))
	if d := time.Until(wall); d > 0 {
		time.Sleep(d)
	}
}

// Network is a live virtual network instance.
type Network struct {
	cfg   Config
	clock *Clock
	sched *core.Schedule

	switches []*vSwitch
	hosts    []*vHost
	fabric   *vFabric

	wg      sync.WaitGroup
	stopped atomic.Bool

	// Delivered counts frames handed to host receive handlers.
	Delivered atomic.Uint64
	// Dropped counts frames lost anywhere (no route, circuit down).
	Dropped atomic.Uint64
}

// Config shapes the virtual network.
type Config struct {
	Nodes           int
	SliceDurationNs int64 // virtual ns (default 200 µs)
	ClockScale      int64 // wall ns per virtual ns (default 100)
	QueueFrames     int   // per calendar queue (default 256)
}

func (c Config) withDefaults() (Config, error) {
	if c.Nodes < 2 {
		return c, fmt.Errorf("mininet: need >= 2 nodes")
	}
	if c.SliceDurationNs <= 0 {
		c.SliceDurationNs = 200_000
	}
	if c.ClockScale <= 0 {
		c.ClockScale = 100
	}
	if c.QueueFrames <= 0 {
		c.QueueFrames = 256
	}
	return c, nil
}

// vFabric emulates the optical fabric: per-slice port connectivity over
// channels.
type vFabric struct {
	net  *Network
	in   chan fabricFrame
	conn []map[core.NodeID]core.NodeID // per-slice node adjacency
}

type fabricFrame struct {
	from core.NodeID
	f    Frame
}

// vSwitch runs the time-flow pipeline as a goroutine: one ingress channel,
// per-slice calendar queues, a rotation driven by the paced clock.
type vSwitch struct {
	id    core.NodeID
	net   *Network
	in    chan Frame
	table *core.Table
	// calendar[i] buffers frames for slice i.
	calendar []chan Frame
	host     *vHost
	rng      uint64
}

// vHost is a goroutine endpoint: a receive handler plus a send path into
// its switch.
type vHost struct {
	id core.HostID
	sw *vSwitch
	// OnFrame is invoked for every delivered frame.
	OnFrame func(Frame)
	mu      sync.Mutex
}

// New builds (but does not start) a live network with one host per node.
func New(cfg Config) (*Network, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := &Network{cfg: cfg, clock: NewClock(cfg.ClockScale)}
	n.fabric = &vFabric{net: n, in: make(chan fabricFrame, 1024)}
	for i := 0; i < cfg.Nodes; i++ {
		sw := &vSwitch{
			id:    core.NodeID(i),
			net:   n,
			in:    make(chan Frame, 1024),
			table: core.NewTable(),
			rng:   uint64(i)*0x9e3779b97f4a7c15 + 1,
		}
		h := &vHost{id: core.HostID(i), sw: sw}
		sw.host = h
		n.switches = append(n.switches, sw)
		n.hosts = append(n.hosts, h)
	}
	return n, nil
}

// Deploy compiles and installs a schedule plus routing, sharing the exact
// controller pipeline with the simulator backend.
func (n *Network) Deploy(circuits []core.Circuit, numSlices int, paths []core.Path,
	lookup core.LookupMode, mp core.MultipathMode) error {
	sched := &core.Schedule{
		NumSlices:     numSlices,
		SliceDuration: time.Duration(n.cfg.SliceDurationNs),
		Circuits:      circuits,
	}
	if err := sched.Validate(); err != nil {
		return err
	}
	ix := core.NewConnIndex(sched)
	cr, err := controller.CompileRouting(ix, paths, controller.CompileOptions{
		Lookup: lookup, Multipath: mp,
	})
	if err != nil {
		return err
	}
	n.sched = sched
	// Fabric adjacency per slice.
	conn := make([]map[core.NodeID]core.NodeID, numSlices)
	for i := range conn {
		conn[i] = make(map[core.NodeID]core.NodeID)
	}
	for ts := 0; ts < numSlices; ts++ {
		for _, sw := range n.switches {
			for _, peer := range ix.Neighbors(sw.id, core.Slice(ts)) {
				conn[ts][sw.id] = peer // single-uplink toolkit: one peer per slice
			}
		}
	}
	n.fabric.conn = conn
	for _, sw := range n.switches {
		if tab, ok := cr.Tables[sw.id]; ok {
			sw.table = tab
		}
		sw.calendar = make([]chan Frame, numSlices)
		for i := range sw.calendar {
			sw.calendar[i] = make(chan Frame, n.cfg.QueueFrames)
		}
	}
	return nil
}

// Start launches the device goroutines.
func (n *Network) Start() error {
	if n.sched == nil {
		return fmt.Errorf("mininet: deploy before start")
	}
	n.wg.Add(1)
	go n.fabric.fabricLoop()
	for _, sw := range n.switches {
		n.wg.Add(2)
		go sw.ingressLoop()
		go sw.egressLoop()
	}
	return nil
}

// Stop terminates all goroutines and waits for them.
func (n *Network) Stop() {
	if n.stopped.Swap(true) {
		return
	}
	n.wg.Wait()
}

// Host returns host i's handle.
func (n *Network) Host(i int) *vHost { return n.hosts[i] }

// Clock exposes the paced clock.
func (n *Network) Clock() *Clock { return n.clock }

// sliceAt maps virtual time to a slice index.
func (n *Network) sliceAt(t int64) core.Slice {
	return core.Slice((t / n.cfg.SliceDurationNs) % int64(n.sched.NumSlices))
}

// Send transmits payload from this host to a destination host (1:1
// host:node in the toolkit).
func (h *vHost) Send(dst core.HostID, srcPort, dstPort uint16, payload []byte) {
	flow := core.FlowKey{SrcHost: h.id, DstHost: dst,
		SrcPort: srcPort, DstPort: dstPort, Proto: core.ProtoUDP}
	f := EncodeFrame(core.NodeID(h.id), core.NodeID(dst), flow, 0, payload)
	select {
	case h.sw.in <- f:
	default:
		h.sw.net.Dropped.Add(1)
	}
}

// ingressLoop is the switch pipeline: look up the frame and place it into
// the calendar queue of its departure slice.
func (s *vSwitch) ingressLoop() {
	defer s.net.wg.Done()
	for {
		if s.net.stopped.Load() {
			return
		}
		select {
		case f := <-s.in:
			s.process(f)
		case <-time.After(time.Millisecond):
		}
	}
}

func (s *vSwitch) process(f Frame) {
	n := s.net
	if f.DstNode() == s.id {
		n.Delivered.Add(1)
		h := s.host
		h.mu.Lock()
		fn := h.OnFrame
		h.mu.Unlock()
		if fn != nil {
			fn(f)
		}
		return
	}
	arr := n.sliceAt(n.clock.Now())
	s.rng = s.rng*6364136223846793005 + 1442695040888963407
	res, ok := s.table.Lookup(arr, f.SrcNode(), f.DstNode(), s.rng, f.Flow().Hash())
	if !ok {
		n.Dropped.Add(1)
		return
	}
	dep := res.DepSlice
	if dep.IsWildcard() {
		dep = arr
	}
	select {
	case s.calendar[int(dep)%len(s.calendar)] <- f:
	default:
		n.Dropped.Add(1) // calendar queue full
	}
}

// egressLoop releases the active slice's queue into the fabric — the
// BMv2 queue-pausing patch of §5.3: queues may only dequeue during their
// time period.
func (s *vSwitch) egressLoop() {
	defer s.net.wg.Done()
	n := s.net
	sd := n.cfg.SliceDurationNs
	for k := int64(1); ; k++ {
		if n.stopped.Load() {
			return
		}
		slice := int((k - 1) % int64(n.sched.NumSlices))
		deadline := k * sd
		// Drain this slice's queue until its window ends.
		q := s.calendar[slice]
		for n.clock.Now() < deadline {
			select {
			case f := <-q:
				n.fabric.in <- fabricFrame{from: s.id, f: f}
			default:
			}
			if len(q) == 0 {
				break
			}
		}
		n.clock.SleepUntil(deadline)
	}
}

// fabricLoop forwards frames over whatever circuit is live for the sender
// when the frame reaches the fabric; frames over dark ports drop.
func (f *vFabric) fabricLoop() {
	defer f.net.wg.Done()
	n := f.net
	for {
		if n.stopped.Load() {
			return
		}
		select {
		case ff := <-f.in:
			ts := n.sliceAt(n.clock.Now())
			peer, ok := f.conn[int(ts)][ff.from]
			if !ok {
				n.Dropped.Add(1)
				continue
			}
			select {
			case n.switches[peer].in <- ff.f:
			default:
				n.Dropped.Add(1)
			}
		case <-time.After(time.Millisecond):
		}
	}
}
