package openoptics

import (
	"reflect"
	"testing"
	"time"

	"openoptics/internal/core"
	"openoptics/internal/fabric"
	"openoptics/internal/traffic"
)

// hohoNet4 builds the 4-node source-routed HOHO program the demand-aware
// control plane starts from.
func hohoNet4(t *testing.T) (*Net, []Circuit, int) {
	t.Helper()
	cfg := Config{
		Node:            "rack",
		NodeNum:         4,
		Uplink:          1,
		HostsPerNode:    1,
		SliceDurationNs: 100_000,
		Seed:            7,
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
	paths := n.HOHO(circuits, numSlices, RoutingOptions{})
	if err := n.DeployRouting(paths, LookupSource, MultipathNone); err != nil {
		t.Fatal(err)
	}
	return n, circuits, numSlices
}

// rotateSlices is a distinct but equally valid schedule: every matching
// moves one slice later, so every circuit's canonical form changes.
func rotateSlices(circuits []Circuit, numSlices int) []Circuit {
	out := make([]Circuit, len(circuits))
	for i, c := range circuits {
		c.Slice = Slice((int(c.Slice) + 1) % numSlices)
		out[i] = c
	}
	return out
}

func TestReprogramHotSwap(t *testing.T) {
	n, circuits, numSlices := hohoNet4(t)
	eps := n.Endpoints()
	sink := traffic.NewSink(eps)
	probe := traffic.NewUDPProbe(n.Engine(), eps[0], eps[3])
	probe.IntervalNs = 50_000
	probe.Start(int64(40 * time.Millisecond))
	n.Run(10 * time.Millisecond)

	next := rotateSlices(circuits, numSlices)
	paths := n.HOHO(next, numSlices, RoutingOptions{})
	err := n.Reprogram(ReprogramPlan{
		Circuits: next, NumSlices: numSlices, Paths: paths,
		Lookup: LookupSource, Multipath: MultipathNone,
	}, ReconfigCost{})
	if err != nil {
		t.Fatal(err)
	}
	if n.Epoch() != 1 || n.Reconfigs() != 1 {
		t.Fatalf("epoch=%d reconfigs=%d, want 1/1", n.Epoch(), n.Reconfigs())
	}
	if n.LastReprogramNs() != n.Engine().Now() {
		t.Fatalf("LastReprogramNs=%d, now=%d", n.LastReprogramNs(), n.Engine().Now())
	}
	snap := n.Snapshot()
	if snap.Epoch != 1 || snap.Reconfigs != 1 || snap.LastReprogramNs == 0 {
		t.Fatalf("snapshot not updated: epoch=%d reconfigs=%d last=%d",
			snap.Epoch, snap.Reconfigs, snap.LastReprogramNs)
	}

	before := sink.RTT.N()
	n.Run(40 * time.Millisecond)
	if sink.RTT.N() <= before {
		t.Fatalf("no round trips completed after the hot-swap (before=%d after=%d)",
			before, sink.RTT.N())
	}
}

func TestReprogramDrainCostDropsPackets(t *testing.T) {
	n, circuits, numSlices := hohoNet4(t)
	eps := n.Endpoints()
	traffic.NewSink(eps)
	probe := traffic.NewUDPProbe(n.Engine(), eps[0], eps[3])
	probe.IntervalNs = 10_000
	probe.Start(int64(40 * time.Millisecond))
	n.Run(10 * time.Millisecond)

	next := rotateSlices(circuits, numSlices)
	paths := n.HOHO(next, numSlices, RoutingOptions{})
	// Every circuit changes, so every fabric port goes dark for the
	// drain window: in-flight probes must hit DropReconfig.
	err := n.Reprogram(ReprogramPlan{
		Circuits: next, NumSlices: numSlices, Paths: paths,
		Lookup: LookupSource, Multipath: MultipathNone,
	}, ReconfigCost{DrainNs: int64(2 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(10 * time.Millisecond)
	if got := n.OpticalFabric().DropsReconfig; got == 0 {
		t.Fatal("expected DropReconfig drops during the drain window, got 0")
	}
	snap := n.OpticalFabric().Snapshot()
	if snap.DropsReconfig != n.OpticalFabric().DropsReconfig {
		t.Fatalf("snapshot drops_reconfig=%d, counter=%d",
			snap.DropsReconfig, n.OpticalFabric().DropsReconfig)
	}
}

func TestReprogramSameCircuitsDarkensNothing(t *testing.T) {
	n, circuits, numSlices := hohoNet4(t)
	eps := n.Endpoints()
	traffic.NewSink(eps)
	probe := traffic.NewUDPProbe(n.Engine(), eps[0], eps[3])
	probe.IntervalNs = 10_000
	probe.Start(int64(30 * time.Millisecond))
	n.Run(5 * time.Millisecond)

	paths := n.HOHO(circuits, numSlices, RoutingOptions{})
	err := n.Reprogram(ReprogramPlan{
		Circuits: circuits, NumSlices: numSlices, Paths: paths,
		Lookup: LookupSource, Multipath: MultipathNone,
	}, ReconfigCost{DrainNs: int64(5 * time.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(10 * time.Millisecond)
	if got := n.OpticalFabric().DropsReconfig; got != 0 {
		t.Fatalf("unchanged schedule darkened ports: %d reconfig drops", got)
	}
	if n.Reconfigs() != 1 {
		t.Fatalf("reconfigs=%d, want 1 (a same-circuit swap still counts)", n.Reconfigs())
	}
}

// TestRejectedProgramChangesNothing: a deployment is checked whole before
// any of it is installed, so a rejected call — a circuit on an uplink its
// node lacks (the OCS check passes it, the fabric refuses it), or a path
// no circuit carries — leaves the schedule, the fabric's circuits, every
// switch's table and the reconfiguration counters as they were. The
// running program then redeploys mid-run, again and again, and keeps
// carrying traffic.
func TestRejectedProgramChangesNothing(t *testing.T) {
	n, circuits, numSlices := hohoNet4(t)
	eps := n.Endpoints()
	sink := traffic.NewSink(eps)
	probe := traffic.NewUDPProbe(n.Engine(), eps[0], eps[3])
	probe.IntervalNs = 50_000
	probe.Start(int64(60 * time.Millisecond))
	n.Run(5 * time.Millisecond)

	paths := n.HOHO(circuits, numSlices, RoutingOptions{})
	noUplink := []Circuit{Connect(0, 1, 2, 0, 0)} // every node has uplink 0 only
	offCircuit := []Path{{Src: 0, Dst: 1, TS: 0,
		Hops: []Hop{{Node: 0, Egress: 99, DepSlice: 0}}}}
	drain := ReconfigCost{DrainNs: int64(time.Millisecond)}
	calls := []struct {
		name string
		call func() error
	}{
		{"DeployTopo on a missing uplink", func() error { return n.DeployTopo(noUplink, numSlices) }},
		{"Reprogram on a missing uplink", func() error {
			return n.Reprogram(ReprogramPlan{Circuits: noUplink, NumSlices: numSlices, Paths: paths,
				Lookup: LookupSource, Multipath: MultipathNone}, drain)
		}},
		{"DeployRouting off the circuits", func() error {
			return n.DeployRouting(offCircuit, LookupSource, MultipathNone)
		}},
		{"Reprogram off the circuits", func() error {
			return n.Reprogram(ReprogramPlan{Circuits: rotateSlices(circuits, numSlices), NumSlices: numSlices,
				Paths: offCircuit, Lookup: LookupSource, Multipath: MultipathNone}, drain)
		}},
	}
	running := deployedOf(n)
	for _, c := range calls {
		if err := c.call(); err == nil {
			t.Fatalf("%s accepted", c.name)
		}
		if moved := running.moved(deployedOf(n)); moved != "" {
			t.Fatalf("%s changed %s", c.name, moved)
		}
	}
	for i := 0; i < 3; i++ {
		if err := n.DeployRouting(paths, LookupSource, MultipathNone); err != nil {
			t.Fatalf("redeploy %d of the running program: %v", i, err)
		}
		n.Run(5 * time.Millisecond)
	}
	before := sink.RTT.N()
	n.Run(30 * time.Millisecond)
	if sink.RTT.N() <= before {
		t.Fatalf("no round trips after the rejected calls (before=%d after=%d)", before, sink.RTT.N())
	}
	if n.OpticalFabric().DropsReconfig != 0 {
		t.Fatal("a rejected reprogram darkened ports")
	}
}

// deployed is what a rejected deployment must leave as it was.
type deployed struct {
	numSlices int
	circuits  []Circuit
	live      []fabric.CircuitSnapshot
	tables    []*core.Table
	epoch     int
	reconfigs uint64
}

func deployedOf(n *Net) deployed {
	d := deployed{
		numSlices: n.Schedule().NumSlices,
		circuits:  n.Schedule().Circuits,
		live:      n.OpticalFabric().Snapshot().Circuits,
		epoch:     n.Epoch(),
		reconfigs: n.Reconfigs(),
	}
	for _, sw := range n.Switches() {
		d.tables = append(d.tables, sw.Table())
	}
	return d
}

// moved names what differs between a and b ("" when nothing does):
// tables by identity, everything else by value.
func (a deployed) moved(b deployed) string {
	switch {
	case a.numSlices != b.numSlices || !reflect.DeepEqual(a.circuits, b.circuits):
		return "the schedule"
	case !reflect.DeepEqual(a.live, b.live):
		return "the fabric's circuits"
	case a.epoch != b.epoch || a.reconfigs != b.reconfigs:
		return "the epoch or the reconfiguration count"
	}
	for i := range a.tables {
		if a.tables[i] != b.tables[i] {
			return "a switch's table"
		}
	}
	return ""
}

// TestCollectWindowedDelta is the windowed-collect regression: two
// consecutive windows must sum to the cumulative-TM delta over the same
// span, entry for entry.
func TestCollectWindowedDelta(t *testing.T) {
	n := rotorNet4(t, nil)
	eps := n.Endpoints()
	flow := core.FlowKey{SrcHost: eps[0].Host, DstHost: eps[2].Host,
		SrcPort: 1, DstPort: 2, Proto: core.ProtoTCP}
	eps[0].Stack.OpenTCP(flow, 0, 2, 500_000)

	base := n.CollectTotal()
	w1 := n.Collect(10 * time.Millisecond)
	flow2 := core.FlowKey{SrcHost: eps[1].Host, DstHost: eps[3].Host,
		SrcPort: 3, DstPort: 4, Proto: core.ProtoTCP}
	eps[1].Stack.OpenTCP(flow2, 1, 3, 200_000)
	w2 := n.Collect(10 * time.Millisecond)
	total := n.CollectTotal()

	if w1[0][2] <= 0 || w2[1][3] <= 0 {
		t.Fatalf("windows missed traffic: w1[0][2]=%.0f w2[1][3]=%.0f", w1[0][2], w2[1][3])
	}
	for i := range total {
		for j := range total[i] {
			want := base[i][j] + w1[i][j] + w2[i][j]
			if total[i][j] != want {
				t.Fatalf("windows don't sum to cumulative at [%d][%d]: %.0f + %.0f + %.0f != %.0f",
					i, j, base[i][j], w1[i][j], w2[i][j], total[i][j])
			}
		}
	}
	// CollectTotal must not reset anything: an immediate re-read agrees.
	again := n.CollectTotal()
	for i := range total {
		for j := range total[i] {
			if again[i][j] != total[i][j] {
				t.Fatalf("CollectTotal not idempotent at [%d][%d]", i, j)
			}
		}
	}
}
