package openoptics_test

// One benchmark per table and figure of the paper's evaluation, wrapping
// the drivers in experiments/. Each reports its headline metrics through
// b.ReportMetric; the full row-by-row output comes from `go run
// ./cmd/oobench -exp <id>`.
//
// Benchmarks default to the drivers' reduced "quick" scale so the whole
// suite completes in minutes; set OPENOPTICS_FULL=1 for paper-scale runs.

import (
	"io"
	"os"
	"testing"

	"openoptics"
	"openoptics/experiments"
	"openoptics/internal/traffic"
)

func benchParams() experiments.Params {
	return experiments.Params{Quick: os.Getenv("OPENOPTICS_FULL") == "", Seed: 42}
}

func BenchmarkFig8MiceFCT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Mice["clos"].Percentile(99)/1e6, "clos-p99-ms")
		b.ReportMetric(r.Mice["rotornet-vlb"].Percentile(99)/1e6, "vlb-p99-ms")
		b.ReportMetric(r.Mice["rotornet-ucmp"].Percentile(99)/1e6, "ucmp-p99-ms")
		b.ReportMetric(r.Mice["opera"].Percentile(99)/1e6, "opera-p99-ms")
	}
}

func BenchmarkFig8ElephantFCT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Elephant["clos"].Mean()/1e6, "clos-mean-ms")
		b.ReportMetric(r.Elephant["rotornet-vlb"].Mean()/1e6, "vlb-mean-ms")
		b.ReportMetric(r.Elephant["jupiter"].Mean()/1e6, "jupiter-mean-ms")
	}
}

func BenchmarkFig9Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.DupAck == 3 {
				b.ReportMetric(row.ThroughputBps/1e9, row.Name+"-gbps")
			}
		}
	}
}

func BenchmarkFig10OCSChoice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.FCT["vlb"]["LC-200us"].Percentile(99)/1e6, "vlb-200us-p99-ms")
		b.ReportMetric(r.FCT["vlb"]["AWGR-2us"].Percentile(99)/1e6, "vlb-2us-p99-ms")
		b.ReportMetric(r.FCT["ucmp"]["LC-200us"].Percentile(99)/1e6, "ucmp-200us-p99-ms")
	}
}

func BenchmarkFig11SwitchDelay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.MinNs, "min-ns")
		b.ReportMetric(r.MaxNs, "max-ns")
		b.ReportMetric(r.SpreadNs, "rotation-var-ns")
	}
}

func BenchmarkFig12EQOError(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Error[50].Max(), "err50ns-max-B")
		b.ReportMetric(r.Error[800].Max(), "err800ns-max-B")
	}
}

func BenchmarkFig13UDPLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Plateaus), "cdf-steps")
		b.ReportMetric(r.RTT.Percentile(50)/1e3, "rtt-p50-us")
		b.ReportMetric(r.RTT.Max()/1e3, "rtt-max-us")
	}
}

func BenchmarkFig14OffloadRTT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric((r.VMA.Max()-r.VMA.Min())/1e3, "vma-range-us")
		b.ReportMetric((r.Kernel.Max()-r.Kernel.Min())/1e3, "kernel-range-us")
	}
}

func BenchmarkTable2Resources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table2(experiments.Params{Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Usage.Max(), "max-resource-pct")
		b.ReportMetric(float64(r.Entries), "entries")
	}
}

func BenchmarkTable3BufferUsage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table3(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Cells["hadoop"]["vlb"].P999Bytes/1e6, "hadoop-vlb-p999-MB")
		b.ReportMetric(r.Cells["hadoop"]["vlb+offload"].P999Bytes/1e6, "hadoop-offload-p999-MB")
		b.ReportMetric(r.Cells["hadoop"]["hoho"].P999Bytes/1e6, "hadoop-hoho-p999-MB")
	}
}

func BenchmarkTable4Congestion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table4(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Cells["hadoop"]["none"].LossRate*100, "none-loss-pct")
		b.ReportMetric(r.Cells["hadoop"]["detect+pushback"].LossRate*100, "both-loss-pct")
		b.ReportMetric(r.Cells["hadoop"]["detect+pushback"].P95DelayNs/1e3, "both-p95-us")
	}
}

func BenchmarkMinSlice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.MinSlice(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Budget.GuardNs), "guard-ns")
		b.ReportMetric(float64(r.Budget.MinSliceNs), "min-slice-ns")
	}
}

func BenchmarkAblationGuardband(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationGuardband(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Loss[0]*100, "guard0-loss-pct")
		b.ReportMetric(r.Loss[200]*100, "guard200-loss-pct")
	}
}

func BenchmarkAblationLookupMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationLookup(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Entries["hop"]), "hop-entries")
		b.ReportMetric(float64(r.Entries["source"]), "source-entries")
	}
}

func BenchmarkAblationMultipath(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationMultipath(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Reorders["packet"]), "packet-reorders")
		b.ReportMetric(float64(r.Reorders["flow"]), "flow-reorders")
	}
}

func BenchmarkAblationQueueCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationQueueCount(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Wraps[2]), "q2-wrap-drops")
		b.ReportMetric(float64(r.Wraps[32]), "q32-wrap-drops")
	}
}

func BenchmarkAblationEQO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationEQO(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Loss["eqo-50ns"]*100, "eqo-loss-pct")
		b.ReportMetric(r.Loss["oracle"]*100, "oracle-loss-pct")
	}
}

// Micro-benchmarks of the hot paths, for regression tracking.

func BenchmarkTimeFlowLookup(b *testing.B) {
	n, err := openoptics.New(openoptics.Config{NodeNum: 16, Uplink: 2, SliceDurationNs: 100_000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	circuits, numSlices, err := openoptics.RoundRobin(16, 2)
	if err != nil {
		b.Fatal(err)
	}
	if err := n.DeployTopo(circuits, numSlices); err != nil {
		b.Fatal(err)
	}
	paths := n.VLB(circuits, numSlices, openoptics.RoutingOptions{})
	if err := n.DeployRouting(paths, openoptics.LookupHop, openoptics.MultipathPacket); err != nil {
		b.Fatal(err)
	}
	tab := n.Switches()[0].Table()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arr := openoptics.Slice(i % numSlices)
		_, _ = tab.Lookup(arr, 0, openoptics.NodeID(1+i%15), uint64(i)*2654435761, uint64(i))
	}
}

func BenchmarkEndToEndPacketRate(b *testing.B) {
	// Measures simulator throughput: packets pushed through a RotorNet
	// from one host to another per wall second. events/op is exact at a
	// given b.N, so `make bench-smoke` gates it.
	n := benchRotorNet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Run(1_000_000) // 1 ms of virtual time per iteration
	}
	b.ReportMetric(float64(n.Engine().Processed)/float64(b.N), "events/op")
}

// benchRotorNet builds the 4-node RotorNet used by the end-to-end hot-path
// benchmarks, with a line-rate UDP probe already injecting traffic.
func benchRotorNet(b *testing.B) *openoptics.Net {
	b.Helper()
	n, err := openoptics.New(openoptics.Config{NodeNum: 4, Uplink: 1, SliceDurationNs: 100_000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	circuits, numSlices, err := openoptics.RoundRobin(4, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := n.DeployTopo(circuits, numSlices); err != nil {
		b.Fatal(err)
	}
	paths := n.VLB(circuits, numSlices, openoptics.RoutingOptions{})
	if err := n.DeployRouting(paths, openoptics.LookupHop, openoptics.MultipathPacket); err != nil {
		b.Fatal(err)
	}
	eps := n.Endpoints()
	probe := traffic.NewUDPProbe(n.Engine(), eps[0], eps[2])
	probe.IntervalNs = 1_000
	probe.Start(1 << 62)
	return n
}

// Telemetry overhead guard: the same hot path with telemetry fully off and
// with the registry plus every flow traced (the probe is a single flow
// pair, so any lower sample rate traces all or nothing of it). Compare
// ns/op of the two in the bench output; EXPERIMENTS.md records the gap.
// Telemetry schedules no events, so `make bench-smoke` holds the enabled
// variant's events/op to the end-to-end ceiling. The disabled variant
// also guards the instrumentation itself — nil-check-only paths must not
// regress the baseline.

func BenchmarkTelemetryDisabled(b *testing.B) {
	n := benchRotorNet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Run(1_000_000)
	}
	b.ReportMetric(float64(n.Engine().Processed)/float64(b.N), "events/op")
}

func BenchmarkTelemetryEnabled(b *testing.B) {
	n := benchRotorNet(b)
	n.Metrics()
	tr := n.Tracer(1)
	tr.SetSink(io.Discard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Run(1_000_000)
	}
	b.ReportMetric(float64(n.Engine().Processed)/float64(b.N), "events/op")
	b.ReportMetric(float64(tr.Finished)/float64(b.N), "traces/op")
}
