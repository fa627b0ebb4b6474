package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"openoptics/internal/traceanalysis"
)

const goldenFixture = "../../internal/traceanalysis/testdata/golden.trace.jsonl"
const mangledFixture = "../../internal/traceanalysis/testdata/mangled.trace.jsonl"

func goldenAnalysis(t *testing.T) *traceanalysis.Analysis {
	t.Helper()
	a, err := traceanalysis.AnalyzeFile(goldenFixture)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestTraceSummaryRendering(t *testing.T) {
	var buf bytes.Buffer
	renderSummary(&buf, "golden", goldenAnalysis(t))
	out := buf.String()
	for _, want := range []string{
		"records:", "delivered", "dropped",
		"slice_wait", "queueing", "serialization", "propagation",
		"p50=", "p95=", "p99=",
		"drops by reason:", "buffer_full",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "identity violations") {
		t.Fatalf("clean fixture reported identity violations:\n%s", out)
	}
}

// TestTraceSummarySurfacesCorruptLines renders the mangled fixture's
// analysis with a provenance header set on it (the fixture file has no
// header line): the summary must print both the provenance line and the
// skipped-line count. That a real damaged trace keeps its header while
// counting corrupt lines is checked by oosim's TestTraceRunIsAnalyzable.
func TestTraceSummarySurfacesCorruptLines(t *testing.T) {
	a, err := traceanalysis.AnalyzeFile(mangledFixture)
	if err != nil {
		t.Fatal(err)
	}
	a.Read.Header = &traceanalysis.Header{Kind: "header", SchemaVersion: 1,
		Manifest: []byte(`{"config_digest":"sha256:feed"}`)}
	var buf bytes.Buffer
	renderSummary(&buf, "mangled", a)
	for _, want := range []string{"\nprovenance: schema v1, config sha256:feed\n", "corrupt lines skipped: 2"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("summary lacks %q:\n%s", strings.TrimSpace(want), buf.String())
		}
	}
}

func TestTraceTableRendering(t *testing.T) {
	a := goldenAnalysis(t)
	var flows, hops, drops bytes.Buffer
	renderFlows(&flows, a, 2)
	renderHops(&hops, a, 0)
	renderDrops(&drops, a, 0)

	if got := strings.Count(flows.String(), "\n"); got != 2+2 {
		t.Fatalf("-top 2 flows rendered %d lines:\n%s", got, flows.String())
	}
	for _, want := range []string{"FCT", "WAIT%", "h0:"} {
		if !strings.Contains(flows.String(), want) {
			t.Fatalf("flows missing %q:\n%s", want, flows.String())
		}
	}
	for _, want := range []string{"SLICE_WAIT", "QUEUEING", "fabric", "calendar queues"} {
		if !strings.Contains(hops.String(), want) {
			t.Fatalf("hops missing %q:\n%s", want, hops.String())
		}
	}
	for _, want := range []string{"buffer_full", "EXAMPLE"} {
		if !strings.Contains(drops.String(), want) {
			t.Fatalf("drops missing %q:\n%s", want, drops.String())
		}
	}
}

func TestTraceExportCommand(t *testing.T) {
	out := filepath.Join(t.TempDir(), "export.json")
	if rc := runTraceExport([]string{"-o", out, goldenFixture}); rc != 0 {
		t.Fatalf("export exited %d", rc)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	n, err := traceanalysis.ValidateChromeTrace(b)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("export produced zero events")
	}
	// Determinism across invocations (same file, same flags).
	out2 := filepath.Join(t.TempDir(), "export2.json")
	if rc := runTraceExport([]string{"-o", out2, goldenFixture}); rc != 0 {
		t.Fatalf("second export exited %d", rc)
	}
	b2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatal("two exports of the same trace file differ")
	}
}

func TestTraceUnknownSubcommand(t *testing.T) {
	if rc := runTrace([]string{"bogus"}); rc != 2 {
		t.Fatalf("unknown subcommand exited %d, want 2", rc)
	}
	if rc := runTrace(nil); rc != 2 {
		t.Fatalf("no subcommand exited %d, want 2", rc)
	}
}
