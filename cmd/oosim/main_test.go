package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"openoptics/internal/diverge"
)

// startedAt matches the manifest's wall-clock start, the one field that
// legitimately differs between two invocations.
var startedAt = regexp.MustCompile(`"started_at": ?"[^"]*"`)

func readMasked(t *testing.T, path string) []byte {
	t.Helper()
	body, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) == 0 {
		t.Fatalf("%s is empty", path)
	}
	return startedAt.ReplaceAll(body, []byte(`"started_at":""`))
}

// TestObserversKeepRunsIdentical runs the 16-node RotorNet/VLB RPC
// workload twice with the profiler and the digest both attached, once with
// the digest alone, and once observed by everything else oosim offers (the
// live plane, progress reports, the flight recorder). The two profiled runs
// must write byte-identical journals, and every chain must equal the
// digest-only run's: attaching observers never changes what the engine
// dispatches. The observed run's journal keeps its Scenario, so `ooctl
// diverge` can bisect it.
func TestObserversKeepRunsIdentical(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	oosim := func(extra ...string) string {
		t.Helper()
		rc, _, stderr := runCaptured(t, append([]string{
			"-nodes", "16", "-arch", "rotornet-vlb", "-workload", "rpc",
			"-load", "0.3", "-duration-ms", "4", "-seed", "7",
		}, extra...)...)
		if rc != 0 {
			t.Fatalf("oosim %v exited %d", extra, rc)
		}
		return stderr
	}
	for _, r := range []string{"a", "b"} {
		oosim("-profile", "-digest-out", path(r+".digest.jsonl"))
	}
	oosim("-digest-out", path("d.digest.jsonl"))
	stderr := oosim("-http", "127.0.0.1:0", "-progress-ms", "1", "-flight-out", path("flight.jsonl"),
		"-digest-out", path("o.digest.jsonl"))
	if !strings.Contains(stderr, "progress: virtual 1.0 ms") {
		t.Fatalf("observed run printed no progress report at 1 ms:\n%s", stderr)
	}

	if !bytes.Equal(readMasked(t, path("a.digest.jsonl")), readMasked(t, path("b.digest.jsonl"))) {
		t.Fatal("the journal differs between two identical instrumented runs")
	}

	alone, err := diverge.ReadFile(path("d.digest.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "o"} {
		j, err := diverge.ReadFile(path(name + ".digest.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := diverge.Compare(j, alone)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Identical || j.Final.Chain != alone.Final.Chain || len(j.Windows) < 2 {
			t.Fatalf("%s: chain %s (%d windows) vs digest-only %s: identical=%v",
				name, j.Final.Chain, len(j.Windows), alone.Final.Chain, rep.Identical)
		}
		if len(j.Header.Scenario) == 0 {
			t.Fatalf("%s: the journal carries no scenario", name)
		}
	}
}

// runCaptured runs oosim in-process and returns its exit code and what it
// printed on stdout and on stderr.
func runCaptured(t *testing.T, args ...string) (rc int, stdout, stderr string) {
	t.Helper()
	dir := t.TempDir()
	create := func(name string) *os.File {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	read := func(f *os.File) string {
		f.Close()
		out, err := os.ReadFile(f.Name())
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	outF, errF := create("stdout.txt"), create("stderr.txt")
	savedOut, savedErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outF, errF
	rc = run(args)
	os.Stdout, os.Stderr = savedOut, savedErr
	return rc, read(outF), read(errF)
}

func TestVersion(t *testing.T) {
	if rc, out, _ := runCaptured(t, "-version"); rc != 0 || !strings.HasPrefix(out, "oosim ") {
		t.Fatalf("oosim -version exited %d printing %q", rc, out)
	}
}

// TestDawareControlLoopMetrics runs a demand-aware hot-swap scenario and
// checks the control loop reaches both of oosim's surfaces: the printed
// demand line, and the exported metrics with at least one reconfiguration
// counted.
func TestDawareControlLoopMetrics(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "metrics.json")
	rc, out, _ := runCaptured(t,
		"-arch", "daware", "-policy", "aware", "-nodes", "8", "-hot-frac", "0.5", "-hot-pairs", "2",
		"-workload", "rpc", "-load", "0.3", "-duration-ms", "20", "-metrics-out", metrics,
	)
	if rc != 0 {
		t.Fatalf("oosim exited %d", rc)
	}
	if !strings.Contains(out, "demand: epochs=") {
		t.Fatalf("oosim printed no demand stats:\n%s", out)
	}

	body, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var export struct {
		Families []struct {
			Name    string `json:"name"`
			Metrics []struct {
				Value *float64 `json:"value"`
			} `json:"metrics"`
		} `json:"families"`
	}
	if err := json.Unmarshal(body, &export); err != nil {
		t.Fatal(err)
	}
	values := map[string]float64{}
	for _, f := range export.Families {
		if len(f.Metrics) > 0 && f.Metrics[0].Value != nil {
			values[f.Name] = *f.Metrics[0].Value
		}
	}
	for _, name := range []string{
		"oo_reconfig_total", "oo_demand_epochs_total", "oo_predictor_error_ratio", "oo_matching_weight_coverage",
	} {
		if _, ok := values[name]; !ok {
			t.Fatalf("metric %s missing from the export", name)
		}
	}
	if values["oo_reconfig_total"] < 1 {
		t.Fatalf("oo_reconfig_total = %g, want >= 1", values["oo_reconfig_total"])
	}
}
