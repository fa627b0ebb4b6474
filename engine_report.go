package openoptics

import (
	"openoptics/internal/core"
	"openoptics/internal/engineobs"
	"openoptics/internal/sim"
)

// Engine observatory wiring: the Net-level switch for the event-causality
// ledger and the report builder `ooctl engine` consumes. The ledger rides
// the engine's one observer seam, so a Net that never attaches it pays
// only the seam's nil checks.

// AttachEngineLedger starts recording event causality on this Net's
// engine, sampling chain capture every sampleEvery root events (rounded up
// to a power of two; ≤1 = capture every chain). Edge, fan-out, and same-
// instant aggregation are always complete while attached. Returns the
// ledger for direct inspection; EngineReport folds it in automatically.
func (n *Net) AttachEngineLedger(sampleEvery uint64) *sim.Ledger {
	l := sim.NewLedger(sampleEvery)
	n.eng.AttachLedger(l)
	return l
}

// PoolStats returns the packet pool's counters (cheap; no copy of network
// state, unlike Snapshot).
func (n *Net) PoolStats() core.PoolStats { return n.pool.Stats() }

// EngineReport builds the engine-observatory report: pressure and pool
// sections always, the ledger section when AttachEngineLedger was called
// (the ledger is flushed — call after the run).
func (n *Net) EngineReport() *engineobs.Report {
	events := n.eng.Processed
	packets := n.pool.Stats().Gets
	r := &engineobs.Report{
		SchemaVersion:   engineobs.SchemaVersion,
		Events:          events,
		Packets:         packets,
		EventsPerPacket: engineobs.EventsPerPacketOf(events, packets),
		Pool:            engineobs.BuildPool(n.pool.Stats()),
	}
	pressure := n.eng.SchedPressure()
	r.Pressure = &pressure
	if l := n.eng.Ledger(); l != nil {
		l.Flush()
		r.Ledger = engineobs.BuildLedger(l, packets)
	}
	return r
}
