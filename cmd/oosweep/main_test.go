package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"openoptics/internal/compare"
	"openoptics/internal/provenance"
	"openoptics/internal/runner"
)

// captureStdout runs fn with os.Stdout redirected to a file and returns
// what it printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout.txt"))
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = f
	fn()
	os.Stdout = saved
	f.Close()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

func TestVersion(t *testing.T) {
	var rc int
	out := captureStdout(t, func() { rc = run([]string{"-version"}) })
	if rc != 0 || !strings.HasPrefix(out, "oosweep ") {
		t.Fatalf("oosweep -version exited %d printing %q", rc, out)
	}
}

// TestRunStampsProvenance runs the committed regression spec through
// `oosweep run` and checks what the regression gate consumes: the ledger
// leads with a provenance header carrying the spec's config digest, the
// summary carries the same digest, and the summary compares clean against
// the committed baseline.
func TestRunStampsProvenance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an 8-replication sweep")
	}
	const specPath = "../../testdata/sweep_regress.json"
	spec, err := runner.LoadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var rc int
	captureStdout(t, func() {
		rc = run([]string{"run", "-spec", specPath, "-out", dir, "-jobs", "4", "-quiet"})
	})
	if rc != 0 {
		t.Fatalf("oosweep run exited %d", rc)
	}

	ledger, err := os.ReadFile(filepath.Join(dir, "ledger.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	first, _, _ := bytes.Cut(ledger, []byte("\n"))
	var header struct {
		Manifest *provenance.Manifest `json:"manifest"`
	}
	if !bytes.HasPrefix(first, []byte(`{"kind":"header"`)) {
		t.Fatalf("ledger's first line is not a provenance header: %s", first)
	}
	if err := json.Unmarshal(first, &header); err != nil || header.Manifest == nil ||
		header.Manifest.ConfigDigest != spec.ConfigDigest() {
		t.Fatalf("ledger header lacks the spec's config digest %s (%v): %s", spec.ConfigDigest(), err, first)
	}

	summaryPath := filepath.Join(dir, "summary.json")
	body, err := os.ReadFile(summaryPath)
	if err != nil {
		t.Fatal(err)
	}
	var summary struct {
		SchemaVersion int                  `json:"schema_version"`
		ConfigDigest  string               `json:"config_digest"`
		Manifest      *provenance.Manifest `json:"manifest"`
	}
	if err := json.Unmarshal(body, &summary); err != nil {
		t.Fatal(err)
	}
	if summary.SchemaVersion == 0 || summary.Manifest == nil || summary.Manifest.Module == "" {
		t.Fatalf("summary provenance incomplete: %s", body)
	}
	if summary.ConfigDigest != header.Manifest.ConfigDigest {
		t.Fatalf("summary config digest %q, ledger header %q", summary.ConfigDigest, header.Manifest.ConfigDigest)
	}

	base, err := compare.LoadRun("../../testdata/baselines/regress_base.summary.json")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := compare.LoadRun(summaryPath)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := compare.Compare(base, fresh, compare.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aligned == 0 || rep.Regressions != 0 {
		t.Fatalf("fresh sweep vs committed baseline: aligned=%d regressions=%d %v",
			rep.Aligned, rep.Regressions, rep.Warnings)
	}
}
