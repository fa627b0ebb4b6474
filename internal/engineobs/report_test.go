package engineobs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"openoptics/internal/core"
	"openoptics/internal/sim"
)

// ledgeredRun executes a synthetic engine workload with known causality:
// 4 constant-delay host.tx→link.deliver→switch.ingress cascades, one
// variable-delay edge, and one fan-out dispatch. Returns the flushed ledger.
func ledgeredRun() *sim.Ledger {
	e := sim.New()
	l := sim.NewLedger(1)
	e.AttachLedger(l)
	for i := 0; i < 4; i++ {
		e.AtClass(int64(i)*1000, sim.ClassHostTx, func() {
			e.AfterClass(600, sim.ClassLinkDeliver, func() {
				e.AfterClass(0, sim.ClassSwitchIngress, func() {})
			})
		})
	}
	// Variable delay: switch.drain → host.tx at 10 ns then 20 ns.
	e.AtClass(50, sim.ClassSwitchDrain, func() { e.AfterClass(10, sim.ClassHostTx, func() {}) })
	e.AtClass(60, sim.ClassSwitchDrain, func() { e.AfterClass(20, sim.ClassHostTx, func() {}) })
	// A self-edge with constant delay: must never appear as mergeable.
	e.AtClass(70, sim.ClassSwitchRotate, func() {
		e.AfterClass(100, sim.ClassSwitchRotate, func() {})
	})
	e.Run()
	l.Flush()
	return l
}

func TestBuildLedgerMergeAnalysis(t *testing.T) {
	r := BuildLedger(ledgeredRun(), 4)
	if r.SampleEvery != 1 {
		t.Fatalf("sample every = %d", r.SampleEvery)
	}

	byEdge := map[string]MergeReport{}
	for _, m := range r.Mergeable {
		byEdge[m.Parent+"->"+m.Child] = m
	}
	// host.tx→link.deliver: constant 600 ns, sole child of its class.
	m, ok := byEdge["host.tx->link.deliver"]
	if !ok {
		t.Fatalf("constant-delay edge missing from merge analysis: %+v", r.Mergeable)
	}
	if m.Kind != "fixed-delay" || m.EventsSaved != 4 {
		t.Fatalf("host.tx edge = %+v", m)
	}
	// link.deliver→switch.ingress: zero delay every time.
	m, ok = byEdge["link.deliver->switch.ingress"]
	if !ok || m.Kind != "same-instant" || m.EventsSaved != 4 {
		t.Fatalf("same-instant edge = %+v (ok=%v)", m, ok)
	}
	if !strings.Contains(m.Note, "inline") {
		t.Fatalf("same-instant note = %q", m.Note)
	}
	// Variable-delay and self edges are never mergeable.
	if _, ok := byEdge["switch.drain->host.tx"]; ok {
		t.Fatal("variable-delay edge must not be mergeable")
	}
	if _, ok := byEdge["switch.rotate->switch.rotate"]; ok {
		t.Fatal("self edge must not be mergeable")
	}
	// Ordered by events saved; totals add up.
	for i := 1; i < len(r.Mergeable); i++ {
		if r.Mergeable[i].EventsSaved > r.Mergeable[i-1].EventsSaved {
			t.Fatalf("mergeable not ordered by savings: %+v", r.Mergeable)
		}
	}
	var sum uint64
	for _, m := range r.Mergeable {
		sum += m.EventsSaved
	}
	if r.EventsSaved != sum {
		t.Fatalf("EventsSaved %d != sum %d", r.EventsSaved, sum)
	}
	if r.EventsSavedPerPacket != float64(sum)/4 {
		t.Fatalf("per-packet savings = %v", r.EventsSavedPerPacket)
	}
	if BuildLedger(nil, 0) != nil {
		t.Fatal("nil ledger must yield a nil section")
	}
}

// fullReport builds a report exercising every section.
func fullReport() *Report {
	events, packets := uint64(140), uint64(10)
	r := &Report{
		SchemaVersion:   SchemaVersion,
		Events:          events,
		Packets:         packets,
		EventsPerPacket: EventsPerPacketOf(events, packets),
		Ledger:          BuildLedger(ledgeredRun(), packets),
		Pressure:        &sim.SchedPressure{PendingEvents: 3, InlinePushes: 90, SpillPushes: 10},
		Pool:            BuildPool(core.PoolStats{Gets: 10, Puts: 8, Outstanding: 2, HighWater: 5, Slabs: 1}),
	}
	return r
}

func TestRendersAreByteDeterministic(t *testing.T) {
	r := fullReport()
	for name, render := range map[string]func(*Report) string{
		"chains":   func(r *Report) string { var b bytes.Buffer; RenderChains(&b, r); return b.String() },
		"pressure": func(r *Report) string { var b bytes.Buffer; RenderPressure(&b, r); return b.String() },
	} {
		a, b := render(r), render(r)
		if a != b {
			t.Fatalf("%s render not deterministic", name)
		}
		if a == "" {
			t.Fatalf("%s render empty", name)
		}
	}
	// JSON round-trip is deterministic too (no maps anywhere in the report).
	j1, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(r)
	if !bytes.Equal(j1, j2) {
		t.Fatal("report JSON not deterministic")
	}
	var back Report
	if err := json.Unmarshal(j1, &back); err != nil {
		t.Fatal(err)
	}
	if back.EventsPerPacket != r.EventsPerPacket || back.Ledger == nil {
		t.Fatalf("round-trip lost sections: %+v", back)
	}
}

func TestRenderChainsNamesMergeableEdges(t *testing.T) {
	var b bytes.Buffer
	RenderChains(&b, fullReport())
	out := b.String()
	for _, want := range []string{
		"mergeable edges",
		"host.tx",
		"link.deliver",
		"same-instant",
		"fixed-delay",
		"same-instant adjacent dispatch pairs",
		"total events saved if merged",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("chains render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderHandlesMissingSections(t *testing.T) {
	r := &Report{SchemaVersion: SchemaVersion, Events: 5}
	var b bytes.Buffer
	RenderChains(&b, r)
	if !strings.Contains(b.String(), "no ledger section") {
		t.Fatalf("chains without ledger: %q", b.String())
	}
	b.Reset()
	RenderPressure(&b, r)
	if !strings.Contains(b.String(), "no pressure section") {
		t.Fatalf("pressure without counters: %q", b.String())
	}
}
