package openoptics

// System-level invariant tests: packet conservation, determinism, and
// calendar-timing properties checked across randomized scenarios with
// testing/quick.

import (
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"openoptics/internal/core"
	"openoptics/internal/stats"
	"openoptics/internal/switchsim"
	"openoptics/internal/traffic"
)

// buildRandomRotor builds a RotorNet-style net from fuzzed parameters.
func buildRandomRotor(nodesRaw, uplinkRaw uint8, seed uint64) (*Net, int, error) {
	nodes := 4 + int(nodesRaw%5)   // 4..8
	uplink := 1 + int(uplinkRaw%2) // 1..2
	n, err := New(Config{
		NodeNum:         nodes,
		Uplink:          uplink,
		SliceDurationNs: 100_000,
		Seed:            seed | 1,
	})
	if err != nil {
		return nil, 0, err
	}
	circuits, numSlices, err := RoundRobin(nodes, uplink)
	if err != nil {
		return nil, 0, err
	}
	if err := n.DeployTopo(circuits, numSlices); err != nil {
		return nil, 0, err
	}
	paths := n.VLB(circuits, numSlices, RoutingOptions{})
	if err := n.DeployRouting(paths, LookupHop, MultipathPacket); err != nil {
		return nil, 0, err
	}
	return n, nodes, nil
}

// TestInvariants bundles the system-level invariant checks under one name
// so the tier-2 gate (`make check`) can run exactly this suite with
// `go test -run TestInvariants`.
func TestInvariants(t *testing.T) {
	t.Run("PacketConservation", TestPacketConservation)
	t.Run("Determinism", TestDeterminism)
	t.Run("CircuitExclusivity", TestCircuitExclusivity)
	t.Run("SliceAlignment", TestSliceAlignment)
	t.Run("AuditorIsPassive", TestAuditorIsPassive)
}

// TestPacketConservation keeps an exact ledger: every packet a host sent
// is delivered to a host, dropped with an accounted reason, parked on a
// host or still in the network — nothing vanishes and nothing is created —
// and every switch-to-host delivery is received by its host as data. The
// auditor's probes sweep at every window close and once after the run,
// and must stay silent.
func TestPacketConservation(t *testing.T) {
	f := func(nodesRaw, uplinkRaw uint8, seed uint64) bool {
		n, nodes, err := buildRandomRotor(nodesRaw, uplinkRaw, seed)
		if err != nil {
			t.Log(err)
			return false
		}
		aud := n.AttachDigest(DigestOptions{WindowEvents: 256})
		eps := n.Endpoints()
		// UDP-only traffic so no retransmissions blur the count.
		var sent uint64
		rng := seed | 1
		for i := 0; i < 200; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			src := int(rng>>33) % nodes
			dst := (src + 1 + int(rng>>40)%(nodes-1)) % nodes
			flow := core.FlowKey{SrcHost: eps[src].Host, DstHost: eps[dst].Host,
				SrcPort: uint16(i), DstPort: 7, Proto: core.ProtoUDP}
			if eps[src].Stack.SendUDP(flow, eps[src].Node, eps[dst].Node, 800, false) {
				sent++
			}
		}
		n.Run(20 * time.Millisecond) // several cycles: everything settles
		aud.sweep()
		if aud.ViolationCount() != 0 {
			t.Logf("invariant violations: %+v", aud.Violations())
			return false
		}
		c := n.Counters()
		fab := n.OpticalFabric()
		// A host's data receptions are its receptions less rotor signals,
		// push-backs and offloaded packets it parks.
		var hostData, parked uint64
		for _, h := range n.Hosts() {
			hc := h.Counters
			hostData += hc.RxPkts - hc.SignalsRx - hc.PushBacksRx - hc.Parked
			parked += uint64(h.ParkedPackets())
		}
		drops := c.DropsNoRoute + c.DropsBuffer + c.DropsWrap + c.DropsCongest +
			c.DropsTTL + fab.DropsGuard + fab.DropsNoCircuit + fab.DropsReconfig
		// Still in the network: every live pool packet no host has parked —
		// queued, on a wire or inside a pipeline stage.
		inNet := uint64(n.PoolStats().Outstanding) - parked
		// Delivered counts switch->host handoffs of data packets.
		if sent != c.Delivered+drops+parked+inNet || hostData != c.Delivered {
			t.Logf("sent=%d delivered=%d drops=%d parked=%d in-network=%d host-data=%d",
				sent, c.Delivered, drops, parked, inNet, hostData)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestAuditorIsPassive: attaching the determinism auditor leaves the run
// as it is — the same events dispatched, the same switch counters and the
// same FCTs — while its probes sweep at every window close and stay silent.
func TestAuditorIsPassive(t *testing.T) {
	type outcome struct {
		events   uint64
		counters []switchsim.Counters
		fct      *stats.Sample
	}
	run := func(nodesRaw, uplinkRaw uint8, seed uint64, audit bool) (outcome, *Auditor) {
		n, _, err := buildRandomRotor(nodesRaw, uplinkRaw, seed)
		if err != nil {
			t.Fatal(err)
		}
		var aud *Auditor
		if audit {
			aud = n.AttachDigest(DigestOptions{WindowEvents: 1024})
		}
		eps := n.Endpoints()
		sink := traffic.NewSink(eps)
		traffic.NewMemcached(n.Engine(), eps[0], eps[1:], seed).Start(int64(8 * time.Millisecond))
		n.Run(8 * time.Millisecond)
		o := outcome{events: n.Engine().Processed, fct: sink.FCTSample(traffic.PortMemcached)}
		for _, sw := range n.Switches() {
			o.counters = append(o.counters, sw.Counters)
		}
		return o, aud
	}
	f := func(nodesRaw, uplinkRaw uint8, seed uint64) bool {
		plain, _ := run(nodesRaw, uplinkRaw, seed, false)
		audited, aud := run(nodesRaw, uplinkRaw, seed, true)
		if len(aud.Digest().Windows()) == 0 || aud.ViolationCount() != 0 {
			t.Logf("%d windows swept, violations: %+v", len(aud.Digest().Windows()), aud.Violations())
			return false
		}
		if !reflect.DeepEqual(plain, audited) {
			t.Logf("the auditor moved the run: %d events audited, %d without", audited.events, plain.events)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterminism: identical configuration and seed produce identical
// results; a different seed produces different microscopic behaviour.
func TestDeterminism(t *testing.T) {
	run := func(seed uint64) (uint64, float64) {
		n, _, err := buildRandomRotor(3, 0, seed)
		if err != nil {
			t.Fatal(err)
		}
		eps := n.Endpoints()
		sink := traffic.NewSink(eps)
		mc := traffic.NewMemcached(n.Engine(), eps[0], eps[1:], seed)
		mc.Start(int64(15 * time.Millisecond))
		n.Run(25 * time.Millisecond)
		return n.Counters().TxPkts, sink.FCTSample(traffic.PortMemcached).Mean()
	}
	tx1, fct1 := run(77)
	tx2, fct2 := run(77)
	if tx1 != tx2 || fct1 != fct2 {
		t.Fatalf("same seed diverged: tx %d/%d fct %g/%g", tx1, tx2, fct1, fct2)
	}
	tx3, fct3 := run(78)
	if tx1 == tx3 && fct1 == fct3 {
		t.Fatal("different seed produced identical run — randomness not wired")
	}
}

// TestCircuitExclusivity: the fabric never carries a packet over a port
// pair that has no circuit in the current slice — enforced by construction,
// observed here via the no-circuit drop counter staying at zero for traffic
// that follows deployed routing.
func TestCircuitExclusivity(t *testing.T) {
	n, nodes, err := buildRandomRotor(2, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	eps := n.Endpoints()
	sink := traffic.NewSink(eps)
	probe := traffic.NewUDPProbe(n.Engine(), eps[0], eps[nodes-1])
	probe.IntervalNs = 30_000
	probe.Start(int64(30 * time.Millisecond))
	n.Run(40 * time.Millisecond)
	fab := n.OpticalFabric()
	if fab.DropsNoCircuit != 0 {
		t.Fatalf("routed traffic hit dark circuits %d times", fab.DropsNoCircuit)
	}
	if sink.RTT.N() == 0 {
		t.Fatal("no probes returned")
	}
}

// TestSliceAlignment: packets a switch transmits on an uplink always land
// inside the slice their circuit is live in — the rotation/guard machinery
// never leaks transmissions across slice boundaries.
func TestSliceAlignment(t *testing.T) {
	n, _, err := buildRandomRotor(0, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	sched := n.Schedule()
	bad := 0
	n.Switches()[1].WireDelaySampler = func(ns int64, size int32) {
		// Arrival time at the peer: subtracting the wire delay gives the
		// TX trigger; both must be in the same slice.
		rx := n.Engine().Now()
		tx := rx - ns
		if sched.SliceAt(rx) != sched.SliceAt(tx) {
			bad++
		}
	}
	eps := n.Endpoints()
	probe := traffic.NewUDPProbe(n.Engine(), eps[0], eps[1])
	probe.IntervalNs = 10_000
	probe.Start(int64(30 * time.Millisecond))
	n.Run(40 * time.Millisecond)
	if bad != 0 {
		t.Fatalf("%d transmissions crossed a slice boundary", bad)
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg, err := LoadConfig("testdata/rotornet.json")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NodeNum != 8 || cfg.SliceDurationNs != 100_000 || !cfg.PushBack {
		t.Fatalf("config = %+v", cfg)
	}
	if len(cfg.IPs) != 8 {
		t.Fatalf("ips = %v", cfg.IPs)
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Hosts()) != 8 {
		t.Fatal("wrong host count from JSON config")
	}
	if _, err := LoadConfig("testdata/missing.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}
