package core

import "fmt"

// Proto enumerates transport protocols carried by simulated packets.
type Proto uint8

// Transport protocol numbers (IANA-style where applicable).
const (
	ProtoUDP  Proto = 17
	ProtoTCP  Proto = 6
	ProtoCtrl Proto = 255 // control messages: push-back, circuit signals, offload
)

// FlowKey is the classic five tuple identifying a transport flow between
// two hosts.
type FlowKey struct {
	SrcHost HostID
	DstHost HostID
	SrcPort uint16
	DstPort uint16
	Proto   Proto
}

// Reverse returns the key of the reverse direction.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{SrcHost: k.DstHost, DstHost: k.SrcHost,
		SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}
}

// FNV-1a parameters (matching hash/fnv's 64-bit variant).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// Hash returns a stable 64-bit hash of the five tuple, used for per-flow
// multipath selection. It is FNV-1a over the 13 big-endian tuple bytes,
// unrolled inline so the hot path allocates nothing — the values are
// bit-identical to the hash/fnv implementation the seed used.
func (k FlowKey) Hash() uint64 {
	h := fnvOffset64
	h = (h ^ uint64(byte(k.SrcHost>>24))) * fnvPrime64
	h = (h ^ uint64(byte(k.SrcHost>>16))) * fnvPrime64
	h = (h ^ uint64(byte(k.SrcHost>>8))) * fnvPrime64
	h = (h ^ uint64(byte(k.SrcHost))) * fnvPrime64
	h = (h ^ uint64(byte(k.DstHost>>24))) * fnvPrime64
	h = (h ^ uint64(byte(k.DstHost>>16))) * fnvPrime64
	h = (h ^ uint64(byte(k.DstHost>>8))) * fnvPrime64
	h = (h ^ uint64(byte(k.DstHost))) * fnvPrime64
	h = (h ^ uint64(byte(k.SrcPort>>8))) * fnvPrime64
	h = (h ^ uint64(byte(k.SrcPort))) * fnvPrime64
	h = (h ^ uint64(byte(k.DstPort>>8))) * fnvPrime64
	h = (h ^ uint64(byte(k.DstPort))) * fnvPrime64
	h = (h ^ uint64(k.Proto)) * fnvPrime64
	return h
}

func (k FlowKey) String() string {
	return fmt.Sprintf("h%d:%d>h%d:%d/%d", k.SrcHost, k.SrcPort, k.DstHost, k.DstPort, k.Proto)
}

// PacketFlags mark special packet roles and fates.
type PacketFlags uint16

// Packet flag bits.
const (
	FlagSYN       PacketFlags = 1 << iota // TCP connection setup
	FlagFIN                               // TCP teardown
	FlagACK                               // carries an acknowledgment
	FlagTrimmed                           // payload trimmed by congestion response (Opera-style)
	FlagOffloaded                         // parked on a host by buffer offloading
	FlagPushBack                          // traffic push-back control message
	FlagSignal                            // circuit-notification signal message
	FlagGenerator                         // on-chip packet-generator packet
	FlagEcho                              // UDP echo request/reply for RTT probing
	FlagReport                            // traffic-collection report
)

// CtrlKind distinguishes control-plane message types carried in packets
// with ProtoCtrl.
type CtrlKind uint8

// Control message kinds (§5.2 infra services).
const (
	CtrlNone        CtrlKind = iota
	CtrlPushBack             // "queue for slice S at node N is full" broadcast
	CtrlSignal               // "circuit to node N up in slice S" notification
	CtrlSignalClose          // "circuit to node N torn down" (TA reconfiguration)
	CtrlOffload              // packet parked on host / returned to switch
	CtrlReport               // per-destination traffic volume report
)

// Packet is the unit of data moving through the simulated network. The
// endpoint-node fields (SrcNode/DstNode) are the routing identity used by
// time-flow tables; the FlowKey addresses hosts under those nodes.
type Packet struct {
	ID       uint64
	Flow     FlowKey
	SrcNode  NodeID // endpoint node (ToR) of the source host
	DstNode  NodeID // endpoint node (ToR) of the destination host
	Size     int32  // wire size in bytes, headers included
	Payload  int32  // transport payload bytes
	Seq      uint32 // transport byte-offset sequence number
	Ack      uint32 // cumulative ACK (TCP)
	Flags    PacketFlags
	Conn     int32 // TCP connection's index in transport.Conns (0 = none)
	Created  int64 // virtual time the packet entered the network
	Enqueued int64 // virtual time of last enqueue (for delay accounting)

	// Source routing state (Fig. 3 d): remaining hops and cursor.
	SR    []SRHop
	SRIdx int

	// Ctrl describes control messages (ProtoCtrl).
	Ctrl      CtrlKind
	CtrlNode  NodeID // subject node of the control message
	CtrlSlice Slice  // subject slice of the control message
	Echo      int64  // timestamp echoed back for RTT probes

	// OffloadedAt is the time the packet was parked on a host by buffer
	// offloading (0 if never offloaded).
	OffloadedAt int64

	// TTL guards against forwarding loops in misconfigured tables.
	TTL int8

	// Trace carries the in-band telemetry record when this packet's flow
	// is sampled by an attached Tracer; nil (the common case) means the
	// packet is untraced and every telemetry site skips it with one
	// pointer check.
	Trace *PktTrace

	// arrSlice and flowHash are the hot per-packet scalars: the arrival
	// slice ingress stamps on every hop and the cached five-tuple hash
	// (0 = not yet computed). Clones carry both.
	arrSlice Slice
	flowHash uint64

	// Pool identity (pool.go): the owning pool, this record's slot index,
	// and the generation captured at allocation (odd = live). All zero for
	// heap packets, so the zero Packet value remains valid and unpooled.
	pool *PacketPool
	idx  int32
	gen  uint32
}

// ArrSlice returns the arrival slice stamped by the ingress pipeline on
// every hop: the slice in which the packet arrived at the current node
// (Req. 1).
func (p *Packet) ArrSlice() Slice {
	if poolDebug {
		p.assertLive()
	}
	return p.arrSlice
}

// SetArrSlice stamps the arrival slice (the ingress pipeline's Req. 1
// write, once per hop).
func (p *Packet) SetArrSlice(s Slice) {
	if poolDebug {
		p.assertLive()
	}
	p.arrSlice = s
}

// FlowHash returns Flow.Hash(), computed on first use and cached so
// per-hop table lookups skip the 13-byte FNV walk. The zero cache value
// triggers recomputation, which yields the same hash — the result is
// always identical to Flow.Hash().
func (p *Packet) FlowHash() uint64 {
	if poolDebug {
		p.assertLive()
	}
	if p.flowHash == 0 {
		p.flowHash = p.Flow.Hash()
	}
	return p.flowHash
}

// ClearFlowHash invalidates the cached five-tuple hash; callers that
// mutate Flow on an existing packet (push-back relays rewriting the
// destination host) must invoke it so FlowHash stays consistent.
func (p *Packet) ClearFlowHash() {
	if poolDebug {
		p.assertLive()
	}
	p.flowHash = 0
}

// HeaderBytes is the fixed per-packet header overhead (Ethernet + IP + UDP
// or TCP, amortized) used when converting payload to wire size.
const HeaderBytes = 64

// MTU is the maximum wire size of a simulated packet.
const MTU = 1500

// MaxPayload is the largest payload one packet can carry.
const MaxPayload = MTU - HeaderBytes

// DefaultTTL is the initial hop budget for data packets. TO paths are short
// (VLB ≤ 2 fabric hops) but offloading and deferrals revisit nodes.
const DefaultTTL = 32

// HasFlag reports whether all bits of f are set on the packet.
func (p *Packet) HasFlag(f PacketFlags) bool { return p.Flags&f == f }

// NextSR pops the next source-route hop. ok is false when the route is
// exhausted (packet is at the last fabric hop).
func (p *Packet) NextSR() (SRHop, bool) {
	if p.SRIdx >= len(p.SR) {
		return SRHop{}, false
	}
	h := p.SR[p.SRIdx]
	p.SRIdx++
	return h, true
}

// IsCtrl reports whether the packet is a control-plane message.
func (p *Packet) IsCtrl() bool { return p.Flow.Proto == ProtoCtrl }

// Mix64 is the splitmix64 finalizer: a cheap full-avalanche 64-bit
// bijection. It is the shared folding primitive of the determinism
// auditor — packet fingerprints here, dispatch digests in internal/sim,
// and the window state hashes at the Net level all chain through it.
func Mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// EventFingerprint implements the determinism auditor's sim.Fingerprinted
// contract: the node an event on this packet acts on (its destination)
// and a 64-bit fingerprint over the packet's *value* identity. The fold
// deliberately covers only plain scalar fields — ID, five tuple, endpoint
// nodes, sizes, transport offsets, flags, control header, creation time.
// Pointer-shaped state (Trace, the SR slice header, the pool back-pointer
// and slot bookkeeping) is excluded by construction: addresses and slot
// reuse patterns vary across processes even when the simulation is
// bit-identical, and folding them would make every digest comparison
// report false divergence.
func (p *Packet) EventFingerprint() (node int32, fp uint64) {
	k := &p.Flow
	h := Mix64(p.ID ^ uint64(uint32(k.SrcHost))<<32 ^ uint64(uint32(k.DstHost)))
	h = Mix64(h ^ uint64(k.SrcPort)<<48 ^ uint64(k.DstPort)<<32 ^ uint64(k.Proto)<<24 ^ uint64(p.Flags))
	h = Mix64(h ^ uint64(uint32(p.SrcNode))<<32 ^ uint64(uint32(p.DstNode)))
	h = Mix64(h ^ uint64(uint32(p.Size))<<32 ^ uint64(uint32(p.Payload)))
	h = Mix64(h ^ uint64(p.Seq)<<32 ^ uint64(p.Ack))
	h = Mix64(h ^ uint64(p.Created))
	h = Mix64(h ^ uint64(p.Ctrl)<<56 ^ uint64(uint32(p.CtrlNode))<<24 ^ uint64(uint16(p.CtrlSlice)))
	return int32(p.DstNode), h
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt%d %v N%d=>N%d size=%d seq=%d", p.ID, p.Flow, p.SrcNode, p.DstNode, p.Size, p.Seq)
}
