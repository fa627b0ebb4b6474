package openoptics

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"openoptics/internal/core"
	"openoptics/internal/telemetry"
	"openoptics/internal/traffic"
)

// Tests for the telemetry subsystem at the network level: Monitor cadence,
// in-band packet tracing, and the Prometheus exporter.

func TestMonitorCadence(t *testing.T) {
	n := rotorNet4(t, nil)
	var times []int64
	n.Monitor(2*time.Millisecond, func(tl Telemetry) bool {
		times = append(times, tl.Time)
		return true
	})
	n.Run(21 * time.Millisecond)
	if len(times) != 10 {
		t.Fatalf("got %d snapshots over 21 ms at 2 ms cadence, want 10", len(times))
	}
	for i, ts := range times {
		want := int64(i+1) * 2_000_000
		if ts != want {
			t.Fatalf("snapshot %d at virtual %d ns, want %d", i, ts, want)
		}
	}
}

func TestMonitorStopsWhenFnReturnsFalse(t *testing.T) {
	n := rotorNet4(t, nil)
	calls := 0
	n.Monitor(time.Millisecond, func(Telemetry) bool {
		calls++
		return calls < 3
	})
	n.Run(50 * time.Millisecond)
	if calls != 3 {
		t.Fatalf("monitor fired %d times after returning false on call 3", calls)
	}
}

func TestMonitorCountsElectricalPort(t *testing.T) {
	// A pure electrical network: all transmitted bytes leave through the
	// electrical uplink, so TxBytes is non-zero only if Monitor includes
	// that port in its per-switch sum.
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
	var last Telemetry
	n.Monitor(5*time.Millisecond, func(tl Telemetry) bool {
		last = tl
		return true
	})
	eps := n.Endpoints()
	flow := core.FlowKey{SrcHost: eps[0].Host, DstHost: eps[2].Host,
		SrcPort: 9, DstPort: traffic.PortReplay, Proto: core.ProtoTCP}
	eps[0].Stack.OpenTCP(flow, eps[0].Node, eps[2].Node, 500_000)
	n.Run(40 * time.Millisecond)
	var tx uint64
	for _, v := range last.TxBytes {
		tx += v
	}
	if tx == 0 {
		t.Fatal("TxBytes = 0 on an electrical-only network: Monitor misses the electrical port")
	}
}

// TestTraceReconstructsFlowPath is the tracing acceptance test: with a
// fixed seed and sample rate 1, the JSONL output must reconstruct each
// sampled packet's exact hop sequence and final disposition — and two runs
// with the same seed must produce identical traces.
func TestTraceReconstructsFlowPath(t *testing.T) {
	run := func() string {
		n := rotorNet4(t, nil)
		var buf bytes.Buffer
		n.Tracer(1).SetSink(&buf)
		eps := n.Endpoints()
		probe := traffic.NewUDPProbe(n.Engine(), eps[0], eps[3])
		probe.IntervalNs = 100_000
		probe.Start(int64(5 * time.Millisecond))
		n.Run(8 * time.Millisecond)
		return buf.String()
	}
	out := run()
	if out != run() {
		t.Fatal("same seed produced different trace output")
	}

	var delivered, forward int
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		var tr PktTrace
		if err := json.Unmarshal([]byte(line), &tr); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if tr.Disposition != core.DispDelivered {
			continue // drops are legitimate (e.g. guardband); checked below
		}
		delivered++
		if len(tr.Hops) == 0 {
			t.Fatalf("delivered trace with no hops: %+v", tr)
		}
		if tr.Hops[0].Node != tr.SrcNode {
			t.Fatalf("first hop at node %d, want source ToR %d", tr.Hops[0].Node, tr.SrcNode)
		}
		if tr.Hops[len(tr.Hops)-1].Node != tr.DstNode {
			t.Fatalf("last hop at node %d, want destination ToR %d", tr.Hops[len(tr.Hops)-1].Node, tr.DstNode)
		}
		if tr.EndNode != tr.DstNode {
			t.Fatalf("delivered at node %d, want %d", tr.EndNode, tr.DstNode)
		}
		prev := tr.StartNs
		for _, h := range tr.Hops {
			if h.TimeNs < prev {
				t.Fatalf("hop times not monotone: %+v", tr.Hops)
			}
			prev = h.TimeNs
			if h.ArrSlice != core.WildcardSlice && (h.ArrSlice < 0 || int(h.ArrSlice) >= 3) {
				t.Fatalf("hop arr slice %d outside deployed cycle", h.ArrSlice)
			}
		}
		if tr.EndNs < prev {
			t.Fatalf("end %d before last hop %d", tr.EndNs, prev)
		}
		// VLB on this 4-node rotor takes at most the source NIC plus
		// source + intermediate + destination ToR decisions.
		if len(tr.Hops) > 4 {
			t.Fatalf("delivered trace with %d hops on a 4-node VLB net", len(tr.Hops))
		}
		if tr.SrcNode == 0 && tr.DstNode == 3 {
			forward++
		}
	}
	if delivered == 0 {
		t.Fatal("no delivered traces recorded")
	}
	if forward == 0 {
		t.Fatal("no traces for the forward probe flow 0->3")
	}
}

func TestTraceHistogramsFeedRegistry(t *testing.T) {
	n := rotorNet4(t, nil)
	reg := n.Metrics()
	tr := n.Tracer(1) // after Metrics: Tracer registers the trace histograms
	eps := n.Endpoints()
	probe := traffic.NewUDPProbe(n.Engine(), eps[0], eps[3])
	probe.Start(int64(5 * time.Millisecond))
	n.Run(8 * time.Millisecond)
	tr.FinalizeFlows() // flush per-flow FCT before export

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"oo_trace_latency_ns_bucket", "oo_trace_hops_count",
		`oo_trace_component_ns_bucket{component="slice_wait"`,
		`oo_trace_component_ns_count{component="queueing"`,
		`oo_trace_component_ns_count{component="serialization"`,
		`oo_trace_component_ns_count{component="propagation"`,
		"oo_trace_fct_ns_count",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("%s missing from export", want)
		}
	}
	if strings.Contains(out, "oo_trace_latency_ns_count 0\n") {
		t.Fatal("trace latency histogram recorded nothing")
	}
	if strings.Contains(out, "oo_trace_fct_ns_count 0\n") {
		t.Fatal("FCT histogram empty after FinalizeFlows")
	}
	// Attribution must cover every delivered packet: each component
	// histogram's count equals the latency histogram's.
	latMatch := regexp.MustCompile(`(?m)^oo_trace_latency_ns_count (\S+)$`).FindStringSubmatch(out)
	if latMatch == nil {
		t.Fatal("no oo_trace_latency_ns_count sample")
	}
	for _, c := range []string{"slice_wait", "queueing", "serialization", "propagation"} {
		re := regexp.MustCompile(`(?m)^oo_trace_component_ns_count\{component="` + c + `"\} (\S+)$`)
		m := re.FindStringSubmatch(out)
		if m == nil || m[1] != latMatch[1] {
			t.Fatalf("component %s count %v, latency histogram count %s", c, m, latMatch[1])
		}
	}
	// FCT: one observation per sampled flow (probe + echo directions).
	fctMatch := regexp.MustCompile(`(?m)^oo_trace_fct_ns_count (\S+)$`).FindStringSubmatch(out)
	if fctMatch == nil || fctMatch[1] != "2" {
		t.Fatalf("FCT observations = %v, want 2; stats %+v", fctMatch, tr.Stats())
	}
}

// promSamples returns a Prometheus text export's sample lines keyed by
// series (name and labels), dropping HELP/TYPE comments.
func promSamples(t *testing.T, reg *telemetry.Registry) map[string]string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		out[line[:i]] = line[i+1:]
	}
	return out
}

// TestRegistryBuiltAfterRunMatches: every exported number is a read of
// state its owner keeps, so a registry built after a run reports exactly
// what one built before traffic reports — per-slice drops and misses and
// the trace histograms included.
func TestRegistryBuiltAfterRunMatches(t *testing.T) {
	run := func(registryFirst bool) (*Net, *telemetry.Tracer, map[string]string) {
		n := hotspotNet(t)
		if registryFirst {
			n.Metrics()
		}
		tr := n.Tracer(1)
		n.Run(8 * time.Millisecond)
		tr.FinalizeFlows()
		return n, tr, promSamples(t, n.Metrics())
	}
	_, _, first := run(true)
	n, tr, late := run(false)
	if !reflect.DeepEqual(first, late) {
		for k, v := range first {
			if late[k] != v {
				t.Errorf("%s: %s built before the run, %q built after", k, v, late[k])
			}
		}
		t.Fatalf("registries disagree (%d vs %d series)", len(first), len(late))
	}

	var drops, misses uint64
	for _, sw := range n.Switches() {
		c := sw.Counters
		drops += c.DropsNoRoute + c.DropsBuffer + c.DropsWrap + c.DropsCongest + c.DropsTTL
		misses += c.SliceMisses
	}
	reg := n.Metrics()
	if got := reg.Sum("oo_switch_drops_total"); drops == 0 || got != float64(drops) {
		t.Fatalf("per-slice drops sum to %g, switch drop counters to %d", got, drops)
	}
	if got := reg.Sum("oo_switch_slice_misses_total"); got != float64(misses) {
		t.Fatalf("per-slice misses sum to %g, switch counters to %d", got, misses)
	}
	delivered := strconv.FormatUint(tr.Stats().Delivered, 10)
	if tr.Stats().Delivered == 0 {
		t.Fatal("no delivered traces")
	}
	for _, c := range telemetry.TraceComponents {
		if got := late[`oo_trace_component_ns_count{component="`+c+`"}`]; got != delivered {
			t.Fatalf("component %s counted %q traces, %s delivered", c, got, delivered)
		}
	}
	if got := late["oo_trace_fct_ns_count"]; got == "" || got == "0" {
		t.Fatalf("oo_trace_fct_ns_count = %q after FinalizeFlows", got)
	}
}

// promSample matches a valid Prometheus text-format sample line (a local
// copy of the validator in internal/telemetry's tests).
var promSample = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (-?[0-9.e+-]+|\+Inf|-Inf|NaN)$`)

func TestPrometheusExportParses(t *testing.T) {
	n := rotorNet4(t, nil)
	reg := n.Metrics()
	eps := n.Endpoints()
	probe := traffic.NewUDPProbe(n.Engine(), eps[0], eps[2])
	probe.Start(int64(5 * time.Millisecond))
	n.Run(8 * time.Millisecond)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	samples := 0
	perSliceDrops := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "# HELP") || strings.HasPrefix(line, "# TYPE") {
			continue
		}
		if !promSample.MatchString(line) {
			t.Fatalf("invalid Prometheus line: %q", line)
		}
		samples++
		if strings.HasPrefix(line, "oo_switch_drops_total{") {
			if !strings.Contains(line, `slice="`) || !strings.Contains(line, `reason="`) {
				t.Fatalf("drop counter missing slice/reason labels: %q", line)
			}
			perSliceDrops[line[:strings.LastIndexByte(line, ' ')]] = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if samples < 50 {
		t.Fatalf("only %d samples exported", samples)
	}
	// 4 nodes x 5 switch drop reasons x 3 slices.
	if len(perSliceDrops) != 60 {
		t.Fatalf("per-slice drop series = %d, want 60", len(perSliceDrops))
	}
	for _, name := range []string{
		"oo_engine_events_total", "oo_switch_rx_pkts_total",
		"oo_host_tx_pkts_total", "oo_transport_retransmissions_total",
		"oo_fabric_forwarded_total", "oo_link_tx_bytes_total",
		"oo_switch_tx_bytes_total",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metric family %s missing from export", name)
		}
	}
}
