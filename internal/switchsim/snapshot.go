package switchsim

import "openoptics/internal/core"

// This file is the switch's snapshot provider for the live observability
// plane (internal/obsv): an instantaneous, JSON-ready view of the queue
// management system — per-port calendar occupancy, EQO registers, buffer
// accounting, and the counter block. Snapshots are taken on the simulation
// goroutine (device state has no locks); the obsv layer publishes the
// resulting immutable value to HTTP readers.

// QueueSnapshot is one calendar queue's instantaneous state.
type QueueSnapshot struct {
	// Bytes is the true buffered byte count.
	Bytes int64 `json:"bytes"`
	// Packets is the queued packet count.
	Packets int `json:"packets"`
	// EstBytes is the ingress-side EQO register as the pipeline would read
	// it now (decay applied); uplinks only, mirrors EstimatedQueueBytes.
	EstBytes int64 `json:"est_bytes"`
}

// PortSnapshot is one egress port's instantaneous state.
type PortSnapshot struct {
	Port core.PortID `json:"port"`
	// Kind is "uplink", "downlink", or "electrical".
	Kind string `json:"kind"`
	// Host is the attached host for downlinks (omitted otherwise).
	Host core.HostID `json:"host,omitempty"`
	// BufferedBytes is the port's share of the shared packet buffer.
	BufferedBytes int64  `json:"buffered_bytes"`
	TxBytes       uint64 `json:"tx_bytes"`
	TxPkts        uint64 `json:"tx_pkts"`
	// Queues is the calendar system: index q holds traffic departing q
	// ranks after the active queue's slice. Non-calendar ports have one.
	Queues []QueueSnapshot `json:"queues"`
}

// Snapshot is one switch's instantaneous state.
type Snapshot struct {
	Node core.NodeID `json:"node"`
	// ActiveQueue is the calendar queue currently transmitting.
	ActiveQueue int `json:"active_queue"`
	// Rotations counts slice boundaries the packet generator has serviced.
	Rotations int64 `json:"rotations"`
	// BufferedBytes is the whole-switch buffer occupancy; by construction
	// it equals BufferUsage(core.NoPort) at the capture instant.
	BufferedBytes int64          `json:"buffered_bytes"`
	Counters      Counters       `json:"counters"`
	Ports         []PortSnapshot `json:"ports"`
}

// CongestionHits is the congestion-detection activity aggregate: every
// packet the §5.2 check diverted from its planned queue (dropped, trimmed,
// or deferred) plus every push-back the switch originated. The flight
// recorder's sustained-congestion trigger watches its growth per slice.
func (c *Counters) CongestionHits() uint64 {
	return c.DropsCongest + c.Trims + c.Defers + c.PushBacksSent
}

// Drops sums the switch-side drop counters across all reasons.
func (c *Counters) Drops() uint64 {
	return c.DropsNoRoute + c.DropsBuffer + c.DropsWrap + c.DropsCongest + c.DropsTTL
}

// Snapshot captures the switch's instantaneous state. Call on the
// simulation goroutine only. Reading the EQO registers applies their
// pending lazy decay, exactly as an ingress-pipeline read would — the
// quantized decay makes the read idempotent, so observing does not change
// subsequent queue dynamics.
func (s *Switch) Snapshot() Snapshot {
	snap := Snapshot{
		Node:          s.Cfg.ID,
		ActiveQueue:   s.active,
		Rotations:     s.rotations,
		BufferedBytes: s.buffered,
		Counters:      s.Counters,
		Ports:         make([]PortSnapshot, 0, len(s.ports)),
	}
	for _, p := range s.ports {
		ps := PortSnapshot{
			Port:          p.id,
			Kind:          portKindName(p.kind),
			BufferedBytes: p.bytes,
			TxBytes:       p.txBytes,
			TxPkts:        p.txPkts,
			Queues:        make([]QueueSnapshot, len(p.queues)),
		}
		if p.kind == portDownlink {
			ps.Host = p.host
		}
		for qi := range p.queues {
			q := QueueSnapshot{
				Bytes:   p.queues[qi].bytes,
				Packets: p.queues[qi].fifo.Len(),
			}
			if p.kind == portUplink {
				q.EstBytes = s.eqoRead(p, qi)
			}
			ps.Queues[qi] = q
		}
		snap.Ports = append(snap.Ports, ps)
	}
	return snap
}

func portKindName(k portKind) string {
	switch k {
	case portUplink:
		return "uplink"
	case portDownlink:
		return "downlink"
	case portElec:
		return "electrical"
	}
	return "unknown"
}

// MaxEQOErrorBytes returns the largest |estimated − true| occupancy
// divergence across the switch's uplink calendar queues right now — the
// live form of the Fig. 12 EQO-accuracy metric, and the signal behind the
// flight recorder's estimation-error trigger.
func (s *Switch) MaxEQOErrorBytes() int64 {
	var worst int64
	for _, p := range s.uplinks {
		for qi := range p.queues {
			err := s.eqoRead(p, qi) - p.queues[qi].bytes
			if err < 0 {
				err = -err
			}
			if err > worst {
				worst = err
			}
		}
	}
	return worst
}
