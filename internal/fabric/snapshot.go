package fabric

import (
	"sort"

	"openoptics/internal/core"
)

// Snapshot providers for the live observability plane: instantaneous,
// JSON-ready views of the fabric devices. Like the switch provider, these
// run on the simulation goroutine and copy everything they report, so the
// returned values are safe to publish to HTTP readers.

// CircuitSnapshot is one live optical circuit in node terms.
type CircuitSnapshot struct {
	A     core.NodeID `json:"a"`
	PortA core.PortID `json:"port_a"`
	B     core.NodeID `json:"b"`
	PortB core.PortID `json:"port_b"`
	// Static marks wildcard-slice (TA) circuits that hold across slices.
	Static bool `json:"static,omitempty"`
}

// OpticalSnapshot is the OCS fabric's instantaneous state: the circuits
// the lookup table would serve right now, plus the drop counters.
type OpticalSnapshot struct {
	// Slice is the current slice, the one the Circuits list was resolved
	// against.
	Slice     core.Slice `json:"slice"`
	NumSlices int        `json:"num_slices"`
	// Circuits lists each live circuit once (not once per direction).
	Circuits       []CircuitSnapshot `json:"circuits"`
	DropsGuard     uint64            `json:"drops_guard"`
	DropsNoCircuit uint64            `json:"drops_no_circuit"`
	DropsReconfig  uint64            `json:"drops_reconfig,omitempty"`
	Forwarded      uint64            `json:"forwarded"`
}

// Snapshot renders the fabric's circuit state at the current time.
// An unprogrammed fabric reports no circuits.
func (f *OpticalFabric) Snapshot() OpticalSnapshot {
	snap := OpticalSnapshot{Slice: core.WildcardSlice}
	snap.DropsGuard = f.DropsGuard
	snap.DropsNoCircuit = f.DropsNoCircuit
	snap.DropsReconfig = f.DropsReconfig
	snap.Forwarded = f.Forwarded
	if f.sched == nil {
		return snap
	}
	ts := f.sched.SliceAt(f.eng.Now())
	snap.Slice = ts
	snap.NumSlices = f.sched.NumSlices
	t := &f.table
	row := int(ts) % t.slices * t.ports
	snap.Circuits = f.circuitList(t.conn[row:row+t.ports], false, snap.Circuits)
	snap.Circuits = f.circuitList(t.conn[t.slices*t.ports:], true, snap.Circuits)
	return snap
}

// circuitList renders one row of the port connection table in node
// terms. Each circuit appears in a row twice (pa→pb and pb→pa); keeping
// only the pa<pb direction lists it once. Output is sorted for stable
// JSON.
func (f *OpticalFabric) circuitList(conn []int32, static bool, out []CircuitSnapshot) []CircuitSnapshot {
	start := len(out)
	for pa, pb := range conn {
		if pa >= int(pb) || pa >= len(f.rev) || int(pb) >= len(f.rev) {
			continue
		}
		ka, kb := f.rev[pa], f.rev[pb]
		out = append(out, CircuitSnapshot{
			A: ka.node, PortA: ka.port, B: kb.node, PortB: kb.port, Static: static,
		})
	}
	tail := out[start:]
	sort.Slice(tail, func(i, j int) bool {
		if tail[i].A != tail[j].A {
			return tail[i].A < tail[j].A
		}
		return tail[i].PortA < tail[j].PortA
	})
	return out
}

// PortInfo returns the node uplink attached to fabric port fp — the
// inverse of PortOf, for rendering link state in node terms.
func (f *OpticalFabric) PortInfo(fp int) (core.NodeID, core.PortID, bool) {
	if fp < 0 || fp >= len(f.rev) {
		return core.NoNode, core.NoPort, false
	}
	k := f.rev[fp]
	return k.node, k.port, true
}

// ElecPortSnapshot is one electrical-fabric output queue's state.
type ElecPortSnapshot struct {
	// Node is the endpoint the port serves (traffic to it exits here).
	Node       core.NodeID `json:"node"`
	QueueBytes int64       `json:"queue_bytes"`
	Packets    int         `json:"packets"`
	// MaxQueueBytes is the queue's all-time high-water mark.
	MaxQueueBytes int64 `json:"max_queue_bytes"`
}

// ElectricalSnapshot is the electrical fabric's instantaneous state.
type ElectricalSnapshot struct {
	DropsQueue   uint64             `json:"drops_queue"`
	DropsNoRoute uint64             `json:"drops_no_route"`
	Forwarded    uint64             `json:"forwarded"`
	Ports        []ElecPortSnapshot `json:"ports"`
}

// Snapshot captures the electrical fabric's queue state, ports sorted by
// served node.
func (f *ElectricalFabric) Snapshot() ElectricalSnapshot {
	snap := ElectricalSnapshot{
		DropsQueue:   f.DropsQueue,
		DropsNoRoute: f.DropsNoRoute,
		Forwarded:    f.Forwarded,
		Ports:        make([]ElecPortSnapshot, 0, len(f.byNode)),
	}
	for node, fp := range f.byNode {
		if fp < 0 {
			continue
		}
		p := f.ports[fp]
		snap.Ports = append(snap.Ports, ElecPortSnapshot{
			Node: core.NodeID(node), QueueBytes: p.bytes, Packets: p.fifo.Len(), MaxQueueBytes: p.maxSeen,
		})
	}
	return snap
}
