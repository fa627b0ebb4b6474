package openoptics

import (
	"bytes"
	"encoding/json"
	"time"

	"openoptics/internal/obsv"
)

// This file wires a Net into the live observability plane (internal/obsv).
// Everything here is opt-in, and every periodic observer is an engine
// watch (sim.Engine.Watch): it runs between handlers and schedules no
// event, so an observed run dispatches exactly the events of a plain one.

// AttachLive publishes the network's metrics (Prometheus text) and state
// snapshot (JSON) to the server now and then every interval of virtual
// time (<=0 defaults to 1ms). Arm before Run. The final state after a run
// is published by calling PublishLive once more.
func (n *Net) AttachLive(srv *obsv.Server, interval time.Duration) {
	n.PublishLive(srv)
	n.watch(interval, func() bool {
		n.PublishLive(srv)
		return true
	})
}

// watch registers fn as an engine watch every interval of virtual time
// (<=0 defaults to 1ms).
func (n *Net) watch(interval time.Duration, fn func() bool) {
	if interval <= 0 {
		interval = time.Millisecond
	}
	n.eng.Watch(int64(interval), fn)
}

// PublishLive renders the registry and a network snapshot once and
// publishes both. Call on the simulation goroutine.
func (n *Net) PublishLive(srv *obsv.Server) {
	var mb bytes.Buffer
	if err := n.Metrics().WritePrometheus(&mb); err == nil {
		srv.Metrics().Set(mb.Bytes())
	}
	if sb, err := json.Marshal(n.Snapshot()); err == nil {
		srv.Snapshot().Set(sb)
	}
}

// AttachFlightRecorder samples the network into the flight recorder at
// every slice boundary of the schedule, on every net: one sample per
// slice, tagged with the slice that just ended and embedding the full
// NetSnapshot, which is what the anomaly triggers and any later dump
// replay see. On calendar-off nets (Clos, c-Through, Jupiter) the
// boundaries are those of the configured slice duration.
func (n *Net) AttachFlightRecorder(rec *obsv.FlightRecorder) {
	// The determinism auditor dumps the ring when an invariant probe
	// fires, preserving the slices leading up to the violation.
	n.flightDump = rec.Dump
	n.watch(n.sched.SliceDuration, func() bool {
		now := n.eng.Now()
		snap := n.Snapshot()
		rec.Record(obsv.Sample{TimeNs: now, Slice: int64(n.sched.SliceAt(now - 1)), Signals: n.signals(), Data: &snap})
		return true
	})
}

// signals extracts the flight recorder's trigger signals: network-wide
// cumulative drops (switches + fabrics), congestion-detection activity,
// and the worst instantaneous EQO estimation error.
func (n *Net) signals() obsv.Signals {
	tot := n.Counters()
	sig := obsv.Signals{
		Drops:          tot.Drops() + n.fabricDrops(),
		CongestionHits: tot.CongestionHits(),
		Reconfigs:      n.reconfigs,
	}
	for _, sw := range n.switches {
		if e := sw.MaxEQOErrorBytes(); e > sig.MaxEQOErrBytes {
			sig.MaxEQOErrBytes = e
		}
	}
	return sig
}

// fabricDrops sums the fabric-side drop counters.
func (n *Net) fabricDrops() uint64 {
	d := n.optical.DropsGuard + n.optical.DropsNoCircuit + n.optical.DropsReconfig
	if n.elec != nil {
		d += n.elec.DropsQueue + n.elec.DropsNoRoute
	}
	return d
}
