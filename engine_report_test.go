package openoptics

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"openoptics/internal/engineobs"
)

// rotorNet16 builds the observatory's acceptance topology: a 16-node
// RotorNet under VLB.
func rotorNet16(t *testing.T) *Net {
	t.Helper()
	cfg := Config{
		Node:            "rack",
		NodeNum:         16,
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
	paths := n.VLB(circuits, numSlices, RoutingOptions{})
	if err := n.DeployRouting(paths, LookupHop, MultipathPacket); err != nil {
		t.Fatal(err)
	}
	return n
}

// observatoryRun builds the 16-node net with the causality ledger on,
// drives probe traffic, and returns the engine report.
func observatoryRun(t *testing.T) *engineobs.Report {
	t.Helper()
	n := rotorNet16(t)
	n.AttachEngineLedger(4)
	probeTraffic(t, n, int64(4*time.Millisecond))
	n.Run(5 * time.Millisecond)
	return n.EngineReport()
}

func TestEngineReportEndToEnd(t *testing.T) {
	r := observatoryRun(t)
	if r.Events == 0 || r.Packets == 0 || r.EventsPerPacket <= 1 {
		t.Fatalf("headline: events=%d packets=%d e/p=%.2f", r.Events, r.Packets, r.EventsPerPacket)
	}
	if r.Pressure == nil || r.Pool == nil || r.Ledger == nil {
		t.Fatalf("missing sections: %+v", r)
	}
	if r.Pressure.InlinePushes+r.Pressure.SpillPushes == 0 {
		t.Fatal("no pushes recorded")
	}
	if r.Pool.Gets != r.Packets || r.Pool.HighWater == 0 {
		t.Fatalf("pool section = %+v vs packets %d", r.Pool, r.Packets)
	}

	// The ledger must evidence the propagation-delivery edge and find it
	// (or another constant-delay edge) mergeable with a concrete count.
	var sawDeliverIngress bool
	for _, e := range r.Ledger.Edges {
		if e.Parent == "link.deliver" && e.Child == "switch.ingress" {
			sawDeliverIngress = true
			if e.MinDelayNs != e.MaxDelayNs {
				t.Fatalf("deliver->ingress not constant: %+v", e)
			}
		}
	}
	if !sawDeliverIngress {
		t.Fatal("link.deliver -> switch.ingress edge missing")
	}
	if len(r.Ledger.Mergeable) == 0 || r.Ledger.EventsSaved == 0 {
		t.Fatalf("merge analysis found nothing: %+v", r.Ledger.Mergeable)
	}
	if len(r.Ledger.Chains) == 0 || len(r.Ledger.Adjacent) == 0 {
		t.Fatal("chains or adjacency empty")
	}
}

// TestEngineReportDeterministic: two identical runs yield byte-identical
// reports (sans manifest) and byte-identical renders of both views, and
// each view carries its sections.
func TestEngineReportDeterministic(t *testing.T) {
	a, b := observatoryRun(t), observatoryRun(t)
	ja, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	jb, _ := json.MarshalIndent(b, "", "  ")
	if !bytes.Equal(ja, jb) {
		t.Fatalf("reports differ across identical runs:\n%s\nvs\n%s", ja, jb)
	}
	for _, v := range []struct {
		name   string
		render func(io.Writer, *engineobs.Report)
		want   []string
	}{
		{"chains", engineobs.RenderChains, []string{
			"mergeable edges", "link.deliver     -> switch.ingress", "total events saved if merged",
		}},
		{"pressure", engineobs.RenderPressure, []string{
			"inline=", "spill=", "packet pool",
		}},
	} {
		var ra, rb bytes.Buffer
		v.render(&ra, a)
		v.render(&rb, b)
		if ra.String() != rb.String() {
			t.Fatalf("%s render differs across identical runs", v.name)
		}
		for _, w := range v.want {
			if !strings.Contains(ra.String(), w) {
				t.Fatalf("%s render lacks %q:\n%s", v.name, w, ra.String())
			}
		}
	}
}

// TestLedgerOverheadOffByDefault: a Net without instruments produces a
// report with pressure and pool only, and the engine carries no ledger.
func TestLedgerOverheadOffByDefault(t *testing.T) {
	n := rotorNet4(t, nil)
	probeTraffic(t, n, int64(time.Millisecond))
	n.Run(2 * time.Millisecond)
	if n.Engine().Ledger() != nil {
		t.Fatal("ledger attached without opt-in")
	}
	r := n.EngineReport()
	if r.Ledger != nil {
		t.Fatalf("sections present without instruments: %+v", r)
	}
	if r.Pressure == nil || r.Pool == nil || r.Events == 0 {
		t.Fatalf("always-on sections missing: %+v", r)
	}
}

func TestSnapshotCarriesEngineAndPool(t *testing.T) {
	n := rotorNet4(t, nil)
	probeTraffic(t, n, int64(time.Millisecond))
	n.Run(time.Millisecond)
	snap := n.Snapshot()
	if snap.Engine.InlinePushes+snap.Engine.SpillPushes == 0 {
		t.Fatalf("snapshot engine section empty: %+v", snap.Engine)
	}
	if snap.Pool.Gets == 0 || snap.Pool.HighWater == 0 {
		t.Fatalf("snapshot pool section empty: %+v", snap.Pool)
	}
}

func TestRegistryExportsPoolAndSchedMetrics(t *testing.T) {
	n := rotorNet4(t, nil)
	probeTraffic(t, n, int64(time.Millisecond))
	n.Run(time.Millisecond)
	var b bytes.Buffer
	if err := n.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"oo_pool_gets_total",
		"oo_pool_high_water",
		"oo_sched_inline_pushes_total",
		"oo_sched_pending_events",
		"oo_sched_resorts_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics export missing %s", want)
		}
	}
}
