package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"openoptics/internal/compare"
	"openoptics/internal/provenance"
	"openoptics/internal/runner"
)

// The committed regression baselines pin the CI gate:
//
//   - regress_base.summary.json: the aggregate of testdata/sweep_regress.json
//     run fresh (8 seed replications of one rotornet scenario). Because the
//     sweep is deterministic, a fresh run must compare clean against it —
//     the "equal runs pass" half of the gate.
//   - regress_inject.summary.json: the same aggregate with every latency
//     metric (FCT and per-component attribution) scaled by 1.05. `ooctl
//     regress` must flag it — the "injected 5% regression is caught" half.
//
// Regenerate with: go test ./cmd/ooctl -run TestRegressionBaseline -update

var update = flag.Bool("update", false, "regenerate the committed regression baselines")

const (
	smokeSpecPath     = "../../testdata/sweep_smoke.json"
	regressSpecPath   = "../../testdata/sweep_regress.json"
	regressBasePath   = "../../testdata/baselines/regress_base.summary.json"
	regressInjectPath = "../../testdata/baselines/regress_inject.summary.json"
)

// runSweep executes a committed sweep spec in-process and returns its
// stamped aggregate.
func runSweep(t *testing.T, specPath string) *runner.Aggregate {
	t.Helper()
	spec, err := runner.LoadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
	manifest := provenance.New(spec.ConfigDigest(), spec.MasterSeed())
	sr, err := runner.Sweep(spec, runner.SweepOptions{
		Jobs: 4, LedgerPath: ledger, Manifest: &manifest,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Failed > 0 || sr.OK != sr.Total {
		t.Fatalf("sweep %s incomplete: %+v", specPath, sr)
	}
	recs, hdr, err := runner.ReadLedgerFull(ledger)
	if err != nil {
		t.Fatal(err)
	}
	agg := runner.NewAggregate(spec.Name, recs)
	agg.Stamp(hdr)
	return agg
}

// injectLatency returns a copy of the aggregate with every latency metric
// scaled by factor — the synthetic regression the gate must catch. Neutral
// metrics (flows, events) and the scenario identity are untouched, so the
// config digests still align.
func injectLatency(agg *runner.Aggregate, factor float64) *runner.Aggregate {
	out := *agg
	out.Scenarios = append([]runner.ScenarioStats(nil), agg.Scenarios...)
	for i := range out.Scenarios {
		sc := &out.Scenarios[i]
		sc.FCTP50Ns.Mean *= factor
		sc.FCTP50Ns.Min *= factor
		sc.FCTP50Ns.Max *= factor
		sc.FCTP99Ns.Mean *= factor
		sc.FCTP99Ns.Min *= factor
		sc.FCTP99Ns.Max *= factor
		sc.FCTMaxNs.Mean *= factor
		sc.FCTMaxNs.Min *= factor
		sc.FCTMaxNs.Max *= factor
		sc.Reps = append([]runner.RepMetrics(nil), sc.Reps...)
		for j := range sc.Reps {
			r := &sc.Reps[j]
			r.FCTMeanNs *= factor
			r.FCTP50Ns *= factor
			r.FCTP95Ns *= factor
			r.FCTP99Ns *= factor
			r.FCTMaxNs *= factor
			r.CompSliceWaitNs = int64(float64(r.CompSliceWaitNs) * factor)
			r.CompQueueingNs = int64(float64(r.CompQueueingNs) * factor)
			r.CompSerializationNs = int64(float64(r.CompSerializationNs) * factor)
			r.CompPropagationNs = int64(float64(r.CompPropagationNs) * factor)
		}
	}
	return &out
}

func writeAggregate(t *testing.T, path string, agg *runner.Aggregate) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := agg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestRegressionBaselineFixtures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an 8-replication sweep")
	}
	agg := runSweep(t, regressSpecPath)
	if *update {
		writeAggregate(t, regressBasePath, agg)
		writeAggregate(t, regressInjectPath, injectLatency(agg, 1.05))
		t.Logf("baselines regenerated under %s", filepath.Dir(regressBasePath))
		return
	}

	base, err := compare.LoadRun(regressBasePath)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}

	// Equal runs must pass: a fresh deterministic re-run of the committed
	// spec carries identical per-replication metrics, so the gate is clean.
	dir := t.TempDir()
	freshPath := filepath.Join(dir, "summary.json")
	writeAggregate(t, freshPath, agg)
	fresh, err := compare.LoadRun(freshPath)
	if err != nil {
		t.Fatal(err)
	}
	var rc int
	out := captureStdout(t, func() { rc = runRegress([]string{"-baseline", regressBasePath, freshPath}) })
	if rc != 0 || !strings.Contains(out, "regressions=0") {
		t.Fatalf("ooctl regress on the fresh run exited %d:\n%s", rc, out)
	}
	rep, err := compare.Compare(base, fresh, compare.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aligned != len(agg.Scenarios) {
		t.Fatalf("fresh run aligned %d of %d scenarios (config digest drift?): %v",
			rep.Aligned, len(agg.Scenarios), rep.Warnings)
	}
	if rep.Regressions != 0 {
		t.Fatalf("fresh run vs committed baseline reported %d regressions", rep.Regressions)
	}
	for _, sd := range rep.Scenarios {
		for _, md := range sd.Metrics {
			if md.Significant {
				t.Fatalf("equal runs: metric %s significant (p=%g)", md.Metric, md.P)
			}
		}
	}

	// Runs of a different spec must be refused, not silently mis-aligned.
	otherPath := filepath.Join(dir, "other.summary.json")
	writeAggregate(t, otherPath, runSweep(t, smokeSpecPath))
	out = captureStdout(t, func() { rc = runCompare([]string{regressBasePath, otherPath}, false) })
	if rc != 0 || !strings.Contains(out, "aligned=0") {
		t.Fatalf("ooctl compare across specs exited %d:\n%s", rc, out)
	}
}

func TestRegressionInjectedShiftCaught(t *testing.T) {
	base, err := compare.LoadRun(regressBasePath)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	inject, err := compare.LoadRun(regressInjectPath)
	if err != nil {
		t.Fatalf("%v (run with -update to generate)", err)
	}
	rep, err := compare.Compare(base, inject, compare.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Regressions == 0 {
		t.Fatal("the injected 5% latency shift was not flagged as a regression")
	}
	// fct_p50_ns is the gate's anchor metric: its cross-seed spread (~2.5%
	// across the 8 replications) is well under the injected 5% shift, so
	// Mann-Whitney must flag it. High-variance metrics (p99/max, the
	// per-component totals, with 50-100% cross-seed spread) correctly stay
	// quiet — a 5% shift is statistically invisible there, and flagging it
	// anyway would mean the test is keying on the point estimate, not the
	// evidence.
	caught := map[string]bool{}
	for _, sd := range rep.Scenarios {
		for _, md := range sd.Metrics {
			if md.Regression {
				caught[md.Metric] = true
				if md.Method != "mann_whitney" {
					t.Fatalf("metric %s flagged without a significance test (%s)", md.Metric, md.Method)
				}
			}
			latency := strings.HasPrefix(md.Metric, "fct_") || strings.HasPrefix(md.Metric, "comp_")
			if latency && (md.DeltaPct < 4.9 || md.DeltaPct > 5.1) {
				t.Fatalf("metric %s: injected +5%% shift shows as %+.2f%%", md.Metric, md.DeltaPct)
			}
		}
	}
	if !caught["fct_p50_ns"] {
		t.Fatalf("injected shift not caught on fct_p50_ns (caught: %v)", caught)
	}

	// Determinism: the report bytes must be identical across invocations —
	// CI diffs them.
	render := func() []byte {
		r, err := compare.Compare(base, inject, compare.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Fatal("regression report is not byte-deterministic")
	}

	// The CLI gate fires with its distinct exit code, naming the metric,
	// and `compare -json` writes identical bytes on every invocation.
	var rc int
	out := captureStdout(t, func() { rc = runRegress([]string{"-baseline", regressBasePath, regressInjectPath}) })
	if rc != exitRegression || !strings.Contains(out, "REGRESSION") || !strings.Contains(out, "fct_p50_ns") {
		t.Fatalf("ooctl regress on the injected fixture exited %d, want %d:\n%s", rc, exitRegression, out)
	}
	dir := t.TempDir()
	var reports [2][]byte
	for i := range reports {
		path := filepath.Join(dir, fmt.Sprintf("r%d.json", i))
		captureStdout(t, func() { rc = runCompare([]string{"-json", path, regressBasePath, regressInjectPath}, false) })
		if rc != 0 {
			t.Fatalf("ooctl compare -json exited %d", rc)
		}
		if reports[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if len(reports[0]) == 0 || !bytes.Equal(reports[0], reports[1]) {
		t.Fatal("ooctl compare -json output differs between invocations")
	}
}
