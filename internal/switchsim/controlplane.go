package switchsim

import (
	"openoptics/internal/core"
	"openoptics/internal/sim"
)

// ControlPlane is the out-of-band management network joining the optical
// controller and the switches — the channel over which push-back messages
// travel to sender switches and traffic reports reach the controller. It
// models a dedicated low-rate control network with a fixed one-way delay.
type ControlPlane struct {
	eng *sim.Engine
	// Delay is the one-way message delay in ns (default 2 µs).
	Delay int64

	handlers map[core.NodeID]func(*core.Packet)
	// ControllerIn, when set, receives messages addressed to NoNode (the
	// optical controller's address).
	ControllerIn func(*core.Packet)

	Sent    uint64
	Dropped uint64
}

// NewControlPlane creates a control plane on the engine.
func NewControlPlane(eng *sim.Engine) *ControlPlane {
	return &ControlPlane{eng: eng, handlers: make(map[core.NodeID]func(*core.Packet))}
}

func (cp *ControlPlane) delay() int64 {
	if cp.Delay <= 0 {
		return 2000
	}
	return cp.Delay
}

// Register subscribes a node's control-message handler.
func (cp *ControlPlane) Register(id core.NodeID, fn func(*core.Packet)) {
	cp.handlers[id] = fn
}

// SendTo delivers a control message to node id (NoNode = the controller)
// after the control-network delay.
func (cp *ControlPlane) SendTo(id core.NodeID, pkt *core.Packet) {
	var fn func(*core.Packet)
	if id == core.NoNode {
		fn = cp.ControllerIn
	} else {
		fn = cp.handlers[id]
	}
	if fn == nil {
		cp.Dropped++
		// No subscriber: the message's life ends here.
		pkt.Free()
		return
	}
	cp.Sent++
	cp.eng.AfterEvent(cp.delay(), sim.ClassOther, (*cpDeliver)(cp), pkt, int64(id))
}

// cpDeliver hands a control message (arg) to the addressed node's handler
// (v) after the control-network delay — the closure-free event form of
// SendTo's deferred delivery. The handler set is resolved again at dispatch
// time; registrations never disappear, so the send-time nil check holds.
type cpDeliver ControlPlane

func (a *cpDeliver) RunEvent(arg any, v int64) {
	cp := (*ControlPlane)(a)
	pkt := arg.(*core.Packet)
	var fn func(*core.Packet)
	if core.NodeID(v) == core.NoNode {
		fn = cp.ControllerIn
	} else {
		fn = cp.handlers[core.NodeID(v)]
	}
	if fn == nil {
		pkt.Free()
		return
	}
	fn(pkt)
}
