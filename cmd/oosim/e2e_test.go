package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"openoptics"
	"openoptics/internal/core"
	"openoptics/internal/traceanalysis"
)

// TestTraceRunIsAnalyzable runs a small rotor net with every flow traced
// and a metrics dump, then checks both artifacts end to end: the trace
// histograms and tracer counters reach the metrics file, and the trace
// file carries a provenance header and records that decode cleanly, whose
// latency decomposition holds on every delivered packet, and whose
// Perfetto export is valid and byte-identical across two exports. Garbage
// appended to the file must then read as corrupt lines next to the
// intact header. The ooctl views over a trace file are covered on the
// golden fixtures.
func TestTraceRunIsAnalyzable(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "run.trace.jsonl")
	metricsFile := filepath.Join(dir, "metrics.prom")
	if rc, _, _ := runCaptured(t, "-nodes", "4", "-workload", "udp-probe", "-duration-ms", "20",
		"-trace-out", traceFile, "-trace-sample", "1", "-metrics-out", metricsFile); rc != 0 {
		t.Fatalf("oosim exited %d", rc)
	}

	metrics, err := os.ReadFile(metricsFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{
		"oo_trace_latency_ns_count ",
		`oo_trace_component_ns_count{component="slice_wait"} `,
		"oo_trace_fct_ns_count ",
		"oo_tracer_started_total ",
		"oo_tracer_sink_errors_total 0\n",
	} {
		if !bytes.Contains(metrics, []byte("\n"+prefix)) {
			t.Errorf("metrics dump has no line starting %q", prefix)
		}
	}

	var traces []*core.PktTrace
	rs, err := traceanalysis.ScanFile(traceFile, func(tr *core.PktTrace) { traces = append(traces, tr) })
	if err != nil {
		t.Fatal(err)
	}
	if rs.Header == nil || rs.Header.SchemaVersion < 1 || rs.Records == 0 || rs.Corrupt != 0 {
		t.Fatalf("trace read stats %+v, header %+v: want a provenance header, records and no corrupt lines", rs, rs.Header)
	}
	a := traceanalysis.New()
	for _, tr := range traces {
		a.Observe(tr)
	}
	if a.Delivered == 0 || a.IdentityViolations != 0 {
		t.Fatalf("%d delivered traces, %d identity violations", a.Delivered, a.IdentityViolations)
	}

	var first, second bytes.Buffer
	for _, buf := range []*bytes.Buffer{&first, &second} {
		if err := traceanalysis.ExportChromeTrace(buf, traces, traceanalysis.ExportOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := traceanalysis.ValidateChromeTrace(first.Bytes()); err != nil || n == 0 {
		t.Fatalf("export is not a Chrome trace with events: %d events, %v", n, err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("two exports of the same trace differ")
	}

	// Damage the file's tail: a rescan must count both bad lines, keep
	// every record, and still report the header it started with.
	f, err := os.OpenFile(traceFile, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("not json at all\n{\"pkt_id\":12,\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	damaged, err := traceanalysis.ScanFile(traceFile, func(*core.PktTrace) {})
	if err != nil {
		t.Fatal(err)
	}
	if damaged.Corrupt != 2 || damaged.Records != rs.Records || damaged.Header == nil || damaged.Header.SchemaVersion != rs.Header.SchemaVersion {
		t.Fatalf("damaged trace read stats %+v, header %+v: want 2 corrupt lines, %d records and the original header",
			damaged, damaged.Header, rs.Records)
	}
}

// promLine is the Prometheus text exposition a /metrics line must match: a
// HELP/TYPE comment or one `name{labels} value` sample.
var promLine = regexp.MustCompile(`^(# (HELP|TYPE) )|^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9.eE+-]+$|^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \+Inf$`)

// TestLiveServeAndInterrupt runs the built oosim binary with a live
// observability server, scrapes it mid-run (including the per-switch state
// in /snapshot), renders one frame with the built ooctl, then interrupts
// the run: the first SIGINT must drain it
// through the normal exit path and exit 130. It needs real processes,
// since the signal contract is the process's exit code.
func TestLiveServeAndInterrupt(t *testing.T) {
	bin := t.TempDir()
	for _, pkg := range []string{".", "../ooctl"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	stderrPath := filepath.Join(bin, "stderr.txt")
	stderr, err := os.Create(stderrPath)
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()

	// A virtual duration far beyond the test keeps the run alive through
	// every scrape; the interrupt ends it. Port 0 avoids collisions, and
	// oosim announces the bound address on stderr.
	sim := exec.Command(filepath.Join(bin, "oosim"), "-nodes", "8", "-workload", "memcached",
		"-duration-ms", "600000", "-http", "127.0.0.1:0")
	sim.Stdout = io.Discard
	sim.Stderr = stderr
	if err := sim.Start(); err != nil {
		t.Fatal(err)
	}
	var waitErr error
	exited := make(chan struct{})
	go func() { waitErr = sim.Wait(); close(exited) }()
	defer func() {
		sim.Process.Kill()
		<-exited
	}()

	addr := announcedAddr(t, stderrPath, exited)
	client := &http.Client{Timeout: 10 * time.Second}
	get := func(path string) []byte {
		t.Helper()
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
		}
		return body
	}

	if body := strings.TrimSpace(string(get("/healthz"))); body != "ok" {
		t.Fatalf("/healthz answered %q", body)
	}
	var runinfo struct {
		SchemaVersion *int     `json:"schema_version"`
		ConfigDigest  string   `json:"config_digest"`
		Seeds         []uint64 `json:"seeds"`
	}
	if err := json.Unmarshal(get("/runinfo"), &runinfo); err != nil {
		t.Fatal(err)
	}
	if runinfo.SchemaVersion == nil || !strings.HasPrefix(runinfo.ConfigDigest, "sha256:") || len(runinfo.Seeds) == 0 {
		t.Fatalf("/runinfo lacks the manifest: %+v", runinfo)
	}
	metrics := string(get("/metrics"))
	for _, want := range []string{"\noo_engine_events_total ", "\n# TYPE oo_switch_rx_pkts_total counter\n"} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics lacks %q", strings.TrimSpace(want))
		}
	}
	sc := bufio.NewScanner(strings.NewReader(metrics))
	for sc.Scan() {
		if !promLine.MatchString(sc.Text()) {
			t.Errorf("malformed Prometheus line %q", sc.Text())
		}
	}

	// /snapshot must carry per-switch state under its wire keys, one entry
	// per node of the run.
	snapBody := get("/snapshot")
	for _, key := range []string{`"switches":`, `"buffered_bytes":`} {
		if !bytes.Contains(snapBody, []byte(key)) {
			t.Errorf("/snapshot lacks %s", key)
		}
	}
	var snap openoptics.NetSnapshot
	if err := json.Unmarshal(snapBody, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Switches) != 8 {
		t.Fatalf("/snapshot has %d switches, want 8", len(snap.Switches))
	}

	// The frame's per-switch rows start with the node ID, after the
	// table header that is printed even for a snapshot with no switches.
	frame, err := exec.Command(filepath.Join(bin, "ooctl"), "watch", "-once", addr).Output()
	if err != nil {
		t.Fatalf("ooctl watch -once: %v", err)
	}
	for _, prefix := range []string{"totals:", "node ", "N0 "} {
		if !regexp.MustCompile(`(?m)^` + prefix).Match(frame) {
			t.Errorf("watch frame has no %q line:\n%s", prefix, frame)
		}
	}

	if err := sim.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-exited:
	case <-time.After(60 * time.Second):
		t.Fatal("oosim still running 60 s after SIGINT")
	}
	var exit *exec.ExitError
	if !errors.As(waitErr, &exit) || exit.ExitCode() != 130 {
		t.Fatalf("interrupted oosim ended with %v, want exit status 130", waitErr)
	}
	if log, _ := os.ReadFile(stderrPath); !strings.Contains(string(log), "interrupted — stopping") {
		t.Fatalf("stderr does not report the interrupt:\n%s", log)
	}
}

// announcedAddr polls oosim's stderr for the live server's address.
func announcedAddr(t *testing.T, stderrPath string, exited <-chan struct{}) string {
	t.Helper()
	const marker = "live observability on http://"
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		log, _ := os.ReadFile(stderrPath)
		if _, rest, ok := strings.Cut(string(log), marker); ok {
			if addr, _, ok := strings.Cut(rest, "\n"); ok {
				return addr
			}
		}
		select {
		case <-exited:
			t.Fatalf("oosim exited before serving:\n%s", log)
		case <-time.After(100 * time.Millisecond):
		}
	}
	t.Fatal("oosim announced no listen address")
	return ""
}
