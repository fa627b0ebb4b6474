package openoptics

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"openoptics/internal/core"
	"openoptics/internal/traffic"
)

// rotorNet4 builds a small RotorNet: 4 nodes, 1 uplink, 1 host each,
// 100 µs slices, VLB routing with per-packet spraying — the Fig. 5 (a)
// program in miniature.
func rotorNet4(t *testing.T, mutate func(*Config)) *Net {
	t.Helper()
	cfg := Config{
		Node:            "rack",
		NodeNum:         4,
		Uplink:          1,
		HostsPerNode:    1,
		SliceDurationNs: 100_000,
		Seed:            7,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	circuits, numSlices, err := RoundRobin(cfg.NodeNum, cfg.Uplink)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.DeployTopo(circuits, numSlices); err != nil {
		t.Fatal(err)
	}
	paths := n.VLB(circuits, numSlices, RoutingOptions{})
	if err := n.DeployRouting(paths, LookupHop, MultipathPacket); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestEndToEndUDPDelivery(t *testing.T) {
	n := rotorNet4(t, nil)
	eps := n.Endpoints()
	sink := traffic.NewSink(eps)
	probe := traffic.NewUDPProbe(n.Engine(), eps[0], eps[3])
	probe.IntervalNs = 50_000
	probe.Start(int64(20 * time.Millisecond))
	n.Run(25 * time.Millisecond)

	if sink.RTT.N() == 0 {
		t.Fatalf("no RTTs measured; sent=%d counters=%+v fabricDrops=%d/%d",
			probe.Sent, n.Counters(), n.OpticalFabric().DropsGuard, n.OpticalFabric().DropsNoCircuit)
	}
	// Round trips must complete within a few optical cycles (cycle =
	// 300 µs here, VLB waits at most ~1 cycle per direction).
	if max := sink.RTT.Max(); max > float64(4*300_000) {
		t.Fatalf("max RTT %.0f ns exceeds 4 cycles", max)
	}
	if sink.RTT.Min() <= 0 {
		t.Fatal("non-positive RTT")
	}
	// The vast majority of probes must return.
	if got := uint64(sink.RTT.N()); got*10 < probe.Sent*9 {
		t.Fatalf("only %d of %d probes returned", got, probe.Sent)
	}
}

func TestEndToEndTCPFlow(t *testing.T) {
	n := rotorNet4(t, nil)
	eps := n.Endpoints()
	sink := traffic.NewSink(eps)
	flow := core.FlowKey{SrcHost: eps[0].Host, DstHost: eps[2].Host,
		SrcPort: 1234, DstPort: traffic.PortReplay, Proto: core.ProtoTCP}
	conn := eps[0].Stack.OpenTCP(flow, eps[0].Node, eps[2].Node, 200_000)
	n.Run(100 * time.Millisecond)
	if !conn.Done() {
		t.Fatalf("flow incomplete: acked=%d of 200000; counters=%+v", conn.Acked(), n.Counters())
	}
	fcts := sink.FCTSample(traffic.PortReplay)
	if fcts.N() != 1 {
		t.Fatalf("FCT samples = %d", fcts.N())
	}
	if fcts.Max() <= 0 || fcts.Max() > float64(int64(100*time.Millisecond)) {
		t.Fatalf("implausible FCT %.0f", fcts.Max())
	}
}

func TestEndToEndNoRouteDrops(t *testing.T) {
	// Deploy topo but not routing: packets must be counted as no-route.
	cfg := Config{NodeNum: 4, Uplink: 1, SliceDurationNs: 100_000, Seed: 7}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	circuits, numSlices, err := RoundRobin(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.DeployTopo(circuits, numSlices); err != nil {
		t.Fatal(err)
	}
	eps := n.Endpoints()
	flow := core.FlowKey{SrcHost: eps[0].Host, DstHost: eps[2].Host,
		SrcPort: 1, DstPort: 2, Proto: core.ProtoUDP}
	eps[0].Stack.SendUDP(flow, eps[0].Node, eps[2].Node, 100, false)
	n.Run(5 * time.Millisecond)
	if n.Counters().DropsNoRoute == 0 {
		t.Fatal("expected no-route drops without routing deployed")
	}
}

func TestEndToEndClosBaseline(t *testing.T) {
	// Pure electrical network: no optical circuits at all.
	cfg := Config{NodeNum: 4, Uplink: 1, ElectricalGbps: 100, Seed: 7}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := n.ElectricalPaths()
	if err != nil {
		t.Fatal(err)
	}
	if err := n.DeployRouting(paths, LookupHop, MultipathNone); err != nil {
		t.Fatal(err)
	}
	eps := n.Endpoints()
	sink := traffic.NewSink(eps)
	flow := core.FlowKey{SrcHost: eps[1].Host, DstHost: eps[3].Host,
		SrcPort: 9, DstPort: traffic.PortReplay, Proto: core.ProtoTCP}
	conn := eps[1].Stack.OpenTCP(flow, eps[1].Node, eps[3].Node, 1_000_000)
	n.Run(50 * time.Millisecond)
	if !conn.Done() {
		t.Fatalf("clos flow incomplete: acked=%d; %+v", conn.Acked(), n.Counters())
	}
	if sink.FCTSample(traffic.PortReplay).N() != 1 {
		t.Fatal("no FCT recorded")
	}
	// On a static electrical path 1 MB at 100 Gbps should finish in well
	// under a millisecond plus RTTs.
	if fct := sink.FCTSample(traffic.PortReplay).Max(); fct > float64(int64(5*time.Millisecond)) {
		t.Fatalf("clos FCT %.0fns implausibly slow", fct)
	}
}

func TestEndToEndHybridLayers(t *testing.T) {
	// c-Through pattern, deployed as one path set: direct optical routes
	// for the pairs with a circuit, electrical routes for every other pair.
	cfg := Config{NodeNum: 4, Uplink: 1, ElectricalGbps: 10,
		SliceDurationNs: 100_000, Seed: 7}
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	elecPaths, err := n.ElectricalPaths()
	if err != nil {
		t.Fatal(err)
	}
	if err := n.DeployRouting(elecPaths, LookupHop, MultipathNone); err != nil {
		t.Fatal(err)
	}
	// Static optical circuits pairing 0-1 and 2-3 (TA instance).
	circuits := []Circuit{
		Connect(0, 0, 1, 0, WildcardSlice),
		Connect(2, 0, 3, 0, WildcardSlice),
	}
	if err := n.DeployTopo(circuits, 1); err != nil {
		t.Fatal(err)
	}
	paths := n.Direct(circuits, 1, RoutingOptions{})
	if len(paths) != 4 { // 0<->1 and 2<->3, both directions
		t.Fatalf("direct paths = %d, want 4", len(paths))
	}
	for _, p := range elecPaths {
		if p.Src/2 != p.Dst/2 { // no circuit joins the pair
			paths = append(paths, p)
		}
	}
	if err := n.DeployRouting(paths, LookupHop, MultipathNone); err != nil {
		t.Fatal(err)
	}
	eps := n.Endpoints()

	// 0 -> 1 rides the optical circuit (fast, 100G); 0 -> 2 has only the
	// 10G electrical path.
	f01 := core.FlowKey{SrcHost: eps[0].Host, DstHost: eps[1].Host,
		SrcPort: 10, DstPort: traffic.PortReplay, Proto: core.ProtoTCP}
	f02 := core.FlowKey{SrcHost: eps[0].Host, DstHost: eps[2].Host,
		SrcPort: 11, DstPort: traffic.PortReplay, Proto: core.ProtoTCP}
	c01 := eps[0].Stack.OpenTCP(f01, 0, 1, 2_000_000)
	c02 := eps[0].Stack.OpenTCP(f02, 0, 2, 2_000_000)
	n.Run(80 * time.Millisecond)
	if !c01.Done() || !c02.Done() {
		t.Fatalf("hybrid flows incomplete: %d / %d; %+v", c01.Acked(), c02.Acked(), n.Counters())
	}
	// The optical fabric must actually have carried the 0->1 traffic.
	if n.OpticalFabric().Forwarded == 0 {
		t.Fatal("optical fabric carried nothing")
	}
	if n.ElectricalFabric().Forwarded == 0 {
		t.Fatal("electrical fabric carried nothing")
	}
	// With the electrical routes alone redeployed, 1 -> 0 flows through
	// the electrical fabric although the circuit is still up.
	if err := n.DeployRouting(elecPaths, LookupHop, MultipathNone); err != nil {
		t.Fatal(err)
	}
	optical := n.OpticalFabric().Forwarded
	f10 := core.FlowKey{SrcHost: eps[1].Host, DstHost: eps[0].Host,
		SrcPort: 12, DstPort: traffic.PortReplay, Proto: core.ProtoTCP}
	c10 := eps[1].Stack.OpenTCP(f10, 1, 0, 100_000)
	n.Run(50 * time.Millisecond)
	if !c10.Done() {
		t.Fatalf("electrical-only flow incomplete; %+v", n.Counters())
	}
	if got := n.OpticalFabric().Forwarded; got != optical {
		t.Fatalf("electrical-only routing forwarded %d packets optically", got-optical)
	}
}

func TestCollectObservesTraffic(t *testing.T) {
	n := rotorNet4(t, nil)
	eps := n.Endpoints()
	flow := core.FlowKey{SrcHost: eps[0].Host, DstHost: eps[2].Host,
		SrcPort: 1, DstPort: 2, Proto: core.ProtoTCP}
	eps[0].Stack.OpenTCP(flow, 0, 2, 500_000)
	tm := n.Collect(50 * time.Millisecond)
	if tm[0][2] < 400_000 {
		t.Fatalf("collect saw %.0f bytes 0->2, want ~500000", tm[0][2])
	}
	// A second collect over an idle period returns ~nothing (reset works;
	// only stray ACK reverse traffic counts toward 2->0).
	tm2 := n.Collect(10 * time.Millisecond)
	if tm2[0][2] > 100_000 {
		t.Fatalf("collect not reset: %.0f", tm2[0][2])
	}
}

func TestDeployRollback(t *testing.T) {
	n := rotorNet4(t, nil)
	// An infeasible deployment must fail and leave the previous routing
	// functional.
	bad := []Path{{Src: 0, Dst: 3, TS: 0, Weight: 1,
		Hops: []Hop{{Node: 0, Egress: 7, DepSlice: 0}}}}
	if err := n.DeployRouting(bad, LookupHop, MultipathPacket); err == nil {
		t.Fatal("infeasible deployment accepted")
	}
	eps := n.Endpoints()
	sink := traffic.NewSink(eps)
	probe := traffic.NewUDPProbe(n.Engine(), eps[0], eps[3])
	probe.Start(int64(5 * time.Millisecond))
	n.Run(10 * time.Millisecond)
	if sink.RTT.N() == 0 {
		t.Fatal("routing lost after failed deployment")
	}
}

func TestConfigDefaultsAndValidation(t *testing.T) {
	if _, err := New(Config{NodeNum: 1}); err == nil {
		t.Error("node_num=1 accepted")
	}
	if _, err := New(Config{NodeNum: 4, Node: "pod"}); err == nil {
		t.Error("bad node type accepted")
	}
	if _, err := New(Config{NodeNum: 4, Response: "explode"}); err == nil {
		t.Error("bad response accepted")
	}
	n, err := New(Config{NodeNum: 4})
	if err != nil {
		t.Fatal(err)
	}
	if n.Cfg.Uplink != 1 || n.Cfg.SliceDurationNs != 100_000 || n.Cfg.LineRateGbps != 100 {
		t.Fatalf("defaults not applied: %+v", n.Cfg)
	}
	if len(n.Hosts()) != 4 || len(n.Switches()) != 4 {
		t.Fatal("wrong device counts")
	}
}

// TestConfigRejectsUnrepresentableRates feeds New Config JSON whose line
// rates truncate to 0 bits/s or overflow int64 once converted: each must
// be an error naming its JSON key, never a panic in the link constructor.
func TestConfigRejectsUnrepresentableRates(t *testing.T) {
	for _, tc := range []struct{ json, key string }{
		{`{"node_num":4,"line_rate_gbps":1e-10}`, "line_rate_gbps"},
		{`{"node_num":4,"line_rate_gbps":1e300}`, "line_rate_gbps"},
		{`{"node_num":4,"electrical_gbps":1e-12}`, "electrical_gbps"},
		{`{"node_num":4,"electrical_gbps":1e300}`, "electrical_gbps"},
	} {
		var cfg Config
		if err := json.Unmarshal([]byte(tc.json), &cfg); err != nil {
			t.Fatal(err)
		}
		_, err := New(cfg)
		if err == nil || !strings.Contains(err.Error(), tc.key) {
			t.Errorf("New(%s) = %v, want an error naming %s", tc.json, err, tc.key)
		}
	}
}

func TestAddEntryAPI(t *testing.T) {
	n := rotorNet4(t, nil)
	err := n.Add(Entry{
		Match:   Match{ArrSlice: WildcardSlice, Src: NoNode, Dst: 2},
		Actions: []Action{{Egress: 0, DepSlice: WildcardSlice}},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Add(Entry{}, 99); err == nil {
		t.Fatal("add to unknown node accepted")
	}
}
