package openoptics

import (
	"openoptics/internal/core"
	"openoptics/internal/fabric"
	"openoptics/internal/sim"
	"openoptics/internal/switchsim"
	"openoptics/internal/telemetry"
)

// NetSnapshot is the network-wide, time-slice-aligned state view the live
// observability plane serves at /snapshot: per-switch calendar-queue
// occupancy (true and EQO-estimated), per-link bandwidth usage, and the
// fabric circuit state, all captured at one simulation instant. Capture
// runs on the simulation goroutine; the result is a deep copy, safe to
// marshal or publish from other goroutines afterwards.
type NetSnapshot struct {
	// TimeNs is the virtual capture time.
	TimeNs int64 `json:"time_ns"`
	// Slice is the current slice per the global (controller) clock;
	// individual devices may disagree by their configured sync error.
	Slice     core.Slice `json:"slice"`
	NumSlices int        `json:"num_slices"`
	// Events is the engine's executed-event count.
	Events uint64 `json:"events"`

	// Epoch is the current scheduling epoch (hot-swap generation) and
	// Reconfigs the cumulative Net.Reprogram count; LastReprogramNs stamps
	// the most recent swap so watchers and the flight recorder can
	// attribute anomalies to reconfiguration events. The installed schedule
	// itself is visible through Optical.Circuits/NumSlices.
	Epoch           int    `json:"epoch"`
	Reconfigs       uint64 `json:"reconfigs"`
	LastReprogramNs int64  `json:"last_reprogram_ns,omitempty"`

	Switches []switchsim.Snapshot   `json:"switches"`
	Links    []LinkSnapshot         `json:"links"`
	Optical  fabric.OpticalSnapshot `json:"optical"`
	// Electrical is nil when no electrical fabric is configured.
	Electrical *fabric.ElectricalSnapshot `json:"electrical,omitempty"`

	// Totals is the network-wide switch counter sum.
	Totals switchsim.Counters `json:"totals"`

	// Trace is the in-band tracer's counters and running latency
	// attribution; nil when tracing is not attached.
	Trace *telemetry.TraceStats `json:"trace,omitempty"`

	// Engine is the scheduler-pressure snapshot (always present — the
	// counters are collected unconditionally) and Pool the packet-pool
	// statistics, so live watchers see engine health next to network
	// health.
	Engine sim.SchedPressure `json:"engine"`
	Pool   core.PoolStats    `json:"pool"`

	// Digest is the determinism auditor's live status; nil when no
	// auditor is attached.
	Digest *AuditStatus `json:"digest,omitempty"`
}

// LinkSnapshot is one optical-fabric link's bandwidth usage, identified by
// the switch side of the wire.
type LinkSnapshot struct {
	Node core.NodeID `json:"node"`
	Port core.PortID `json:"port"`
	// BandwidthBps is the line rate.
	BandwidthBps int64 `json:"bandwidth_bps"`
	// TxBytes/RxBytes count the switch→fabric / fabric→switch directions.
	TxBytes uint64 `json:"tx_bytes"`
	RxBytes uint64 `json:"rx_bytes"`
	// Utilization is the switch→fabric fraction of capacity used since
	// time zero (the bw_usage view, normalized).
	Utilization float64 `json:"utilization"`
}

// Snapshot captures the instantaneous network-wide state. Call on the
// simulation goroutine (between Run calls, from an event or from a watch).
// Per-switch BufferedBytes equals BufferUsage(node, NoPort) at the capture
// instant by construction.
func (n *Net) Snapshot() NetSnapshot {
	now := n.eng.Now()
	snap := NetSnapshot{
		TimeNs:          now,
		Slice:           n.sched.SliceAt(now),
		NumSlices:       n.sched.NumSlices,
		Events:          n.eng.Processed,
		Epoch:           n.epoch,
		Reconfigs:       n.reconfigs,
		LastReprogramNs: n.lastReprogramNs,
		Switches:        make([]switchsim.Snapshot, 0, len(n.switches)),
		Optical:         n.optical.Snapshot(),
	}
	for _, sw := range n.switches {
		s := sw.Snapshot()
		snap.Totals.Add(&s.Counters)
		snap.Switches = append(snap.Switches, s)
	}
	links := n.optical.Links()
	snap.Links = make([]LinkSnapshot, 0, len(links))
	for fp, l := range links {
		node, port, ok := n.optical.PortInfo(fp)
		if !ok {
			continue
		}
		snap.Links = append(snap.Links, LinkSnapshot{
			Node: node, Port: port,
			BandwidthBps: l.BandwidthBps,
			TxBytes:      l.BytesAB, RxBytes: l.BytesBA,
			Utilization: linkUtil(l.BytesAB, l.BandwidthBps, now),
		})
	}
	if n.elec != nil {
		es := n.elec.Snapshot()
		snap.Electrical = &es
	}
	if n.tracer != nil {
		ts := n.tracer.Stats()
		snap.Trace = &ts
	}
	snap.Engine = n.eng.SchedPressure()
	snap.Pool = n.pool.Stats()
	if n.audit != nil {
		st := n.audit.Status()
		snap.Digest = &st
	}
	return snap
}

// PoolStats returns the packet pool's counters (cheap; no copy of network
// state, unlike Snapshot).
func (n *Net) PoolStats() core.PoolStats { return n.pool.Stats() }
