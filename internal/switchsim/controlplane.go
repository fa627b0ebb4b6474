package switchsim

import (
	"openoptics/internal/core"
	"openoptics/internal/sim"
)

// ControlPlane is the out-of-band management network between switches,
// the channel push-back messages travel to sender switches on. It models a
// dedicated low-rate control network with a fixed one-way delay. (Traffic
// reports travel host → ToR, not over this network.)
type ControlPlane struct {
	eng      *sim.Engine
	handlers map[core.NodeID]func(*core.Packet)
}

// controlDelay is the control network's one-way message delay in ns.
const controlDelay = 2000

// NewControlPlane creates a control plane on the engine.
func NewControlPlane(eng *sim.Engine) *ControlPlane {
	return &ControlPlane{eng: eng, handlers: make(map[core.NodeID]func(*core.Packet))}
}

// Register subscribes a node's control-message handler.
func (cp *ControlPlane) Register(id core.NodeID, fn func(*core.Packet)) {
	cp.handlers[id] = fn
}

// SendTo delivers a control message to switch id after the control-network
// delay.
func (cp *ControlPlane) SendTo(id core.NodeID, pkt *core.Packet) {
	if cp.handlers[id] == nil {
		// No subscriber: the message's life ends here.
		pkt.Free()
		return
	}
	cp.eng.AfterEvent(controlDelay, sim.ClassOther, (*cpDeliver)(cp), pkt, int64(id))
}

// cpDeliver hands a control message (arg) to the addressed switch's handler
// (v) after the control-network delay — the closure-free event form of
// SendTo's deferred delivery. Registrations never disappear, so SendTo's
// nil check holds at dispatch.
type cpDeliver ControlPlane

func (a *cpDeliver) RunEvent(arg any, v int64) {
	(*ControlPlane)(a).handlers[core.NodeID(v)](arg.(*core.Packet))
}
