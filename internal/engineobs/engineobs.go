// Package engineobs holds the engine's shared events/packet definition:
// oobench records it for every built network, and the benchmark in
// simbench/ reports it per workload.
package engineobs

// EventsPerPacketOf is the shared events/packet definition (0 when no
// packets were allocated).
func EventsPerPacketOf(events, packets uint64) float64 {
	if packets == 0 {
		return 0
	}
	return float64(events) / float64(packets)
}
