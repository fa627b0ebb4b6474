package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"openoptics/internal/core"
)

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	var events [2]uint64
	for i := range events {
		r.CounterFunc("oo_test_events_total", "events",
			func() float64 { return float64(events[i]) }, L("node", fmt.Sprint(i)))
	}
	events[0] = 3
	if got, ok := r.Value("oo_test_events_total", L("node", "0")); !ok || got != 3 {
		t.Fatalf("Value = %v,%v want 3,true", got, ok)
	}
	g := 42.0
	r.GaugeFunc("oo_test_depth", "depth", func() float64 { return g }, L("node", "1"))
	if got, _ := r.Value("oo_test_depth", L("node", "1")); got != 42 {
		t.Fatalf("gauge = %v", got)
	}
	// Sum with subset label matching, read at call time.
	events[1] = 5
	if got := r.Sum("oo_test_events_total"); got != 8 {
		t.Fatalf("Sum all = %v want 8", got)
	}
	if got := r.Sum("oo_test_events_total", L("node", "1")); got != 5 {
		t.Fatalf("Sum node=1 = %v want 5", got)
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram([]float64{10, 100, 1000})
	r.HistogramFunc("oo_test_delay_ns", "delay", func() *Histogram { return h })
	for _, v := range []float64{5, 50, 500, 5000} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 5555 {
		t.Fatalf("count=%d sum=%g", h.Count(), h.Sum())
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`oo_test_delay_ns_bucket{le="10"} 1`,
		`oo_test_delay_ns_bucket{le="1000"} 3`,
		`oo_test_delay_ns_bucket{le="+Inf"} 4`,
		`oo_test_delay_ns_count 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// promLine matches a valid Prometheus text sample line.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (-?[0-9.e+-]+|\+Inf|-Inf|NaN)$`)

// ValidatePrometheus is shared with the root-level acceptance test: every
// line is either a HELP/TYPE comment or a well-formed sample.
func ValidatePrometheus(t *testing.T, text string) int {
	t.Helper()
	samples := 0
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("invalid Prometheus line: %q", line)
		}
		samples++
	}
	return samples
}

func TestPrometheusExportParses(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("oo_a_total", "a", func() float64 { return 1 }, L("node", "0"), L("slice", "3"))
	r.GaugeFunc("oo_b_bytes", "b", func() float64 { return 1.5 })
	h := NewHistogram([]float64{1, 2})
	h.Observe(1.5)
	r.HistogramFunc("oo_c_ns", "c", func() *Histogram { return h })
	r.DynamicFamily("oo_d_total", "d", TypeCounter, func(emit func([]Label, float64)) {
		emit([]Label{L("class", "link.deliver")}, 7)
	})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if n := ValidatePrometheus(t, buf.String()); n < 8 {
		t.Fatalf("expected >= 8 sample lines, got %d:\n%s", n, buf.String())
	}
}

func TestJSONExport(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("oo_a_total", "a", func() float64 { return 9 }, L("node", "2"))
	h := NewHistogram([]float64{10})
	h.Observe(3)
	r.HistogramFunc("oo_c_ns", "c", func() *Histogram { return h })
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		SchemaVersion int              `json:"schema_version"`
		Manifest      map[string]any   `json:"manifest"`
		Families      []map[string]any `json:"families"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("JSON export does not parse: %v\n%s", err, buf.String())
	}
	if doc.SchemaVersion != 1 {
		t.Fatalf("schema_version = %d", doc.SchemaVersion)
	}
	if doc.Manifest != nil {
		t.Fatalf("manifest should be absent before SetManifest: %v", doc.Manifest)
	}
	if len(doc.Families) != 2 {
		t.Fatalf("families = %d", len(doc.Families))
	}

	// SetManifest embeds the run manifest in the export.
	r.SetManifest(map[string]string{"config_digest": "sha256:xyz"})
	buf.Reset()
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Manifest["config_digest"] != "sha256:xyz" {
		t.Fatalf("manifest not embedded: %v", doc.Manifest)
	}
}

// TestWriteFilePicksFormatByExtension: a .json path gets WriteJSON's
// document, any other path WritePrometheus's text, byte for byte; a path
// that cannot be created is an error.
func TestWriteFilePicksFormatByExtension(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("oo_a_total", "a", func() float64 { return 9 }, L("node", "2"))
	dir := t.TempDir()
	for name, write := range map[string]func(*bytes.Buffer) error{
		"m.json": func(b *bytes.Buffer) error { return r.WriteJSON(b) },
		"m.prom": func(b *bytes.Buffer) error { return r.WritePrometheus(b) },
	} {
		path := filepath.Join(dir, name)
		if err := r.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := write(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s:\n%s\nwant\n%s", name, got, want.Bytes())
		}
	}
	if err := r.WriteFile(filepath.Join(dir, "missing", "m.prom")); err == nil {
		t.Fatal("WriteFile into a missing directory succeeded")
	}
}

func TestSnakeCase(t *testing.T) {
	for in, want := range map[string]string{
		"RxPkts":       "rx_pkts",
		"DropsNoRoute": "drops_no_route",
		"RTOFires":     "rto_fires",
		"PushBacksRx":  "push_backs_rx",
		"TxBytes":      "tx_bytes",
	} {
		if got := SnakeCase(in); got != want {
			t.Errorf("SnakeCase(%s) = %s want %s", in, got, want)
		}
	}
}

func TestRegisterCounterStruct(t *testing.T) {
	type counters struct {
		RxPkts  uint64
		TxPkts  uint64
		private uint64 //nolint:unused // must be skipped, not panic
		Name    string // non-uint64: skipped
	}
	c := &counters{RxPkts: 3, TxPkts: 4}
	r := NewRegistry()
	RegisterCounterStruct(r, "oo_dev", "device counters", c, L("node", "0"))
	if got, ok := r.Value("oo_dev_rx_pkts_total", L("node", "0")); !ok || got != 3 {
		t.Fatalf("rx = %v,%v", got, ok)
	}
	c.TxPkts = 10
	if got, _ := r.Value("oo_dev_tx_pkts_total", L("node", "0")); got != 10 {
		t.Fatalf("export is not live: %v", got)
	}
}

func TestTracerSamplingAndFlush(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(1, &buf)
	flow := core.FlowKey{SrcHost: 1, DstHost: 2, SrcPort: 10, DstPort: 20, Proto: core.ProtoUDP}
	pkt := &core.Packet{ID: 7, Flow: flow, SrcNode: 0, DstNode: 3, Size: 128}
	tr.Start(pkt, 100)
	if pkt.Trace == nil {
		t.Fatal("rate-1 tracer did not attach")
	}
	pkt.Trace.AddHop(core.TraceHop{TimeNs: 150, Node: 0, Egress: 1, ArrSlice: 2, DepSlice: 3, QueueBytes: 64})
	pkt.Trace.AddHop(core.TraceHop{TimeNs: 250, Node: 5, Egress: 0, ArrSlice: 3, DepSlice: 4})
	tr.Deliver(pkt, 3, 300)
	if pkt.Trace != nil {
		t.Fatal("trace not detached at finish")
	}
	var rec core.PktTrace
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("JSONL record does not parse: %v", err)
	}
	if rec.PktID != 7 || len(rec.Hops) != 2 || rec.Disposition != core.DispDelivered ||
		rec.Hops[0].Egress != 1 || rec.EndNs != 300 {
		t.Fatalf("bad record: %+v", rec)
	}

	// Rate 0 never samples; control packets never sampled at any rate.
	tr0 := NewTracer(0, nil)
	pkt2 := &core.Packet{Flow: flow}
	tr0.Start(pkt2, 0)
	if pkt2.Trace != nil {
		t.Fatal("rate-0 tracer attached a trace")
	}
	ctrl := &core.Packet{Flow: core.FlowKey{Proto: core.ProtoCtrl}}
	tr.Start(ctrl, 0)
	if ctrl.Trace != nil {
		t.Fatal("control packet traced")
	}

	// Sampling is deterministic and proportional-ish.
	trHalf := NewTracer(0.5, nil)
	sampled := 0
	for i := 0; i < 1000; i++ {
		f := core.FlowKey{SrcHost: core.HostID(i), DstHost: 2, SrcPort: uint16(i), DstPort: 9, Proto: core.ProtoUDP}
		if trHalf.Sampled(f) {
			sampled++
		}
		if trHalf.Sampled(f) != trHalf.Sampled(f) {
			t.Fatal("sampling not deterministic")
		}
	}
	if sampled < 350 || sampled > 650 {
		t.Fatalf("rate 0.5 sampled %d/1000", sampled)
	}

	// Drop disposition carries the reason.
	pkt3 := &core.Packet{ID: 9, Flow: flow, Size: 64}
	buf.Reset()
	tr.Start(pkt3, 10)
	tr.Drop(pkt3, core.DropWrap, 4, 20)
	var rec3 core.PktTrace
	if err := json.Unmarshal(buf.Bytes(), &rec3); err != nil {
		t.Fatal(err)
	}
	if rec3.Disposition != core.DispDropped || rec3.Reason != core.DropWrap || rec3.EndNode != 4 {
		t.Fatalf("bad drop record: %+v", rec3)
	}
}

// mustPanic runs fn and fails the test unless it panics with a message
// containing want.
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q", want)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not mention %q", msg, want)
		}
	}()
	fn()
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	// Pin the exposition format: _bucket series must be cumulative and
	// monotone, ending in +Inf == _count, with an exact _sum.
	r := NewRegistry()
	h := NewHistogram([]float64{1, 10, 100})
	r.HistogramFunc("oo_pin_ns", "pinned", func() *Histogram { return h }, L("node", "0"))
	for _, v := range []float64{0.5, 0.5, 5, 50, 500} {
		h.Observe(v)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`oo_pin_ns_bucket{node="0",le="1"} 2`,
		`oo_pin_ns_bucket{node="0",le="10"} 3`,
		`oo_pin_ns_bucket{node="0",le="100"} 4`,
		`oo_pin_ns_bucket{node="0",le="+Inf"} 5`,
		`oo_pin_ns_sum{node="0"} 556`,
		`oo_pin_ns_count{node="0"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestDuplicateFuncMetricPanics(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("oo_g_bytes", "g", func() float64 { return 1 }, L("node", "0"))
	mustPanic(t, "duplicate", func() {
		r.GaugeFunc("oo_g_bytes", "g", func() float64 { return 2 }, L("node", "0"))
	})
	h := func() *Histogram { return NewHistogram([]float64{1}) }
	r.HistogramFunc("oo_h_ns", "h", h)
	mustPanic(t, "duplicate", func() { r.HistogramFunc("oo_h_ns", "h", h) })
}

func TestDynamicFamilyDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	collect := func(emit func([]Label, float64)) {}
	r.DynamicFamily("oo_dyn_total", "d", TypeCounter, collect)
	mustPanic(t, "registered twice", func() {
		r.DynamicFamily("oo_dyn_total", "d", TypeCounter, collect)
	})
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("oo_t_total", "t", func() float64 { return 0 })
	mustPanic(t, "re-registered as", func() {
		r.GaugeFunc("oo_t_total", "t", func() float64 { return 0 })
	})
}

// TestTracerStatsAndDecomposition pins the tracer's per-disposition
// accounting, the latency-attribution totals, the EndSlice stamp, and the
// per-flow FCT flush.
func TestTracerStatsAndDecomposition(t *testing.T) {
	tr := NewTracer(1, nil)
	flow := core.FlowKey{SrcHost: 1, DstHost: 2, SrcPort: 10, DstPort: 20, Proto: core.ProtoUDP}

	// Packet 1: fully stamped — NIC hop then a calendar hop.
	p1 := &core.Packet{ID: 1, Flow: flow, SrcNode: 0, DstNode: 3, Size: 100}
	tr.Start(p1, 100)
	p1.Trace.AddHop(core.TraceHop{TimeNs: 100, Node: 0, ArrSlice: core.WildcardSlice,
		DepSlice: core.WildcardSlice, DeqNs: 100, TxDoneNs: 110})
	p1.Trace.AddHop(core.TraceHop{TimeNs: 130, Node: 1, ArrSlice: 0, DepSlice: 1})
	p1.Trace.MarkDequeued(1, 170, 180)
	p1.SetArrSlice(2)
	tr.Deliver(p1, 3, 200)

	// Packet 2: dropped while queued (no dequeue stamp on the last hop).
	p2 := &core.Packet{ID: 2, Flow: flow, SrcNode: 0, DstNode: 3, Size: 100}
	tr.Start(p2, 300)
	p2.Trace.AddHop(core.TraceHop{TimeNs: 300, Node: 0, ArrSlice: core.WildcardSlice,
		DepSlice: core.WildcardSlice, DeqNs: 300, TxDoneNs: 310})
	p2.SetArrSlice(1)
	tr.Drop(p2, core.DropBuffer, 1, 350)

	st := tr.Stats()
	if st.Delivered != 1 || st.Dropped != 1 || st.Finished != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.IdentityViolations != 0 {
		t.Fatalf("clean stamps counted as violations: %+v", st)
	}
	// p1: NIC wait 0 (queueing), ser 10; calendar wait 40 (slice), ser 10;
	// prop = (130-110) + (200-180) = 40. Total 100 = EndNs - StartNs.
	want := core.Decomposition{SliceWaitNs: 40, QueueingNs: 0, SerializationNs: 20, PropagationNs: 40}
	if st.Comp != want {
		t.Fatalf("attribution %+v, want %+v", st.Comp, want)
	}
	if st.Comp.TotalNs() != st.DeliveredLatencyNs {
		t.Fatalf("attribution sums to %d, delivered latency %d", st.Comp.TotalNs(), st.DeliveredLatencyNs)
	}
	if st.Flows != 1 {
		t.Fatalf("flows = %d, want 1", st.Flows)
	}

	// EndSlice rides into the JSONL record via the OnFinish-visible trace.
	var got *core.PktTrace
	tr.OnFinish = func(x *core.PktTrace) { got = x }
	p3 := &core.Packet{ID: 3, Flow: flow, SrcNode: 0, DstNode: 3, Size: 100}
	tr.Start(p3, 400)
	p3.SetArrSlice(5)
	tr.Drop(p3, core.DropGuard, core.NoNode, 450)
	if got == nil || got.EndSlice != 5 {
		t.Fatalf("EndSlice not stamped at finish: %+v", got)
	}

	// The tracer's own histograms hold the one delivered packet, and
	// FinalizeFlows observes one FCT per flow, then forgets.
	h := tr.Histograms()
	if h.Latency.Count() != 1 || h.Latency.Sum() != 100 || h.Hops.Sum() != 2 {
		t.Fatalf("latency n=%d sum=%g, hops sum=%g", h.Latency.Count(), h.Latency.Sum(), h.Hops.Sum())
	}
	for i, c := range h.Components {
		if c.Count() != 1 {
			t.Fatalf("component %s count = %d, want 1", TraceComponents[i], c.Count())
		}
	}
	tr.FinalizeFlows()
	if h.FCT.Count() != 1 {
		t.Fatalf("FCT count = %d, want the one flow", h.FCT.Count())
	}
	if tr.Stats().Flows != 0 {
		t.Fatal("FinalizeFlows kept flow state")
	}
}

// TestMarkDequeuedGuards pins the stamp guard: only the recording node's
// own un-stamped pending hop is written.
func TestMarkDequeuedGuards(t *testing.T) {
	var pt core.PktTrace
	pt.MarkDequeued(0, 10, 20) // no hops: no-op
	pt.AddHop(core.TraceHop{TimeNs: 5, Node: 2})
	pt.MarkDequeued(3, 10, 20) // wrong node
	if pt.Hops[0].DeqNs != 0 {
		t.Fatal("stamped another node's hop")
	}
	pt.MarkDequeued(2, 10, 20)
	if pt.Hops[0].DeqNs != 10 || pt.Hops[0].TxDoneNs != 20 {
		t.Fatalf("stamp missing: %+v", pt.Hops[0])
	}
	pt.MarkDequeued(2, 99, 99) // already stamped: keep first
	if pt.Hops[0].DeqNs != 10 {
		t.Fatal("re-stamped a stamped hop")
	}
}

func TestTracerWriteHeader(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(1, &buf)
	tr.WriteHeader(map[string]string{"config_digest": "sha256:hdr"})
	flow := core.FlowKey{SrcHost: 1, DstHost: 2, SrcPort: 1, DstPort: 2, Proto: core.ProtoUDP}
	pkt := &core.Packet{ID: 1, Flow: flow, SrcNode: 0, DstNode: 1, Size: 64}
	tr.Start(pkt, 10)
	tr.Deliver(pkt, 1, 20)

	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("stream has %d lines, want header + record", len(lines))
	}
	var hdr TraceHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		t.Fatalf("header line: %v", err)
	}
	if hdr.Kind != "header" || hdr.SchemaVersion != 1 {
		t.Fatalf("header = %+v", hdr)
	}
	m, ok := hdr.Manifest.(map[string]any)
	if !ok || m["config_digest"] != "sha256:hdr" {
		t.Fatalf("manifest = %#v", hdr.Manifest)
	}

	// Sink-less tracers must ignore WriteHeader entirely (the runner uses
	// one for component attribution without any trace file).
	tr2 := NewTracer(1, nil)
	tr2.WriteHeader(map[string]string{"x": "y"})
	if tr2.SinkErrs != 0 {
		t.Fatalf("nil-sink WriteHeader flagged errors: %d", tr2.SinkErrs)
	}
}
