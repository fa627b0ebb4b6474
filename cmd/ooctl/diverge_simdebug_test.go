//go:build simdebug

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"openoptics/internal/diverge"
	"openoptics/internal/diverge/replay"
	"openoptics/internal/runner"
)

// TestDivergeBisectsPerturbedRun is the acceptance test for the
// determinism auditor: record a clean journal, re-run with exactly one
// same-instant event pair swapped (the clean journal's perturb hint), and
// check `ooctl diverge` exits 3 naming that exact event.
func TestDivergeBisectsPerturbedRun(t *testing.T) {
	raw, err := json.Marshal(runner.Scenario{
		Arch: "rotornet-vlb", Trace: "rpc", Nodes: 4, SliceDurationNs: 100_000,
		Load: 0.3, Seed: 7, DurationMs: 3, EventDigest: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	header := &diverge.Header{WindowEvents: 256, Scenario: raw}
	clean, err := replay.Execute(header, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	hint := clean.Journal.Final.PerturbHint
	if hint == "" {
		t.Fatal("clean run produced no perturb hint")
	}
	var pa, pb uint64
	if _, err := fmt.Sscanf(hint, "%d:%d", &pa, &pb); err != nil {
		t.Fatalf("bad hint %q: %v", hint, err)
	}

	pheader := *header
	pheader.PerturbA, pheader.PerturbB = pa, pb
	perturbed, err := replay.Execute(&pheader, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if perturbed.Journal.Final.Chain == clean.Journal.Final.Chain {
		t.Fatal("perturbed run's chain equals the clean run's — swap had no effect")
	}

	dir := t.TempDir()
	fa := filepath.Join(dir, "a.digest.jsonl")
	fb := filepath.Join(dir, "b.digest.jsonl")
	if err := diverge.WriteFile(fa, clean.Journal); err != nil {
		t.Fatal(err)
	}
	if err := diverge.WriteFile(fb, perturbed.Journal); err != nil {
		t.Fatal(err)
	}

	var code int
	out := captureStdout(t, func() { code = runDiverge([]string{fa, fb}) })
	if code != exitRegression {
		t.Fatalf("ooctl diverge exited %d on divergent journals, want %d\n%s", code, exitRegression, out)
	}
	if !strings.Contains(out, "verdict: DIVERGED") {
		t.Fatalf("report lacks verdict:\n%s", out)
	}
	if !strings.Contains(out, "first divergent event: index") {
		t.Fatalf("report did not bisect to an event:\n%s", out)
	}
	// The first divergent dispatch carries the smaller hinted seq (the
	// swapped pair occupies two adjacent (t, seq) slots; payloads swap).
	lo := pa
	if pb < lo {
		lo = pb
	}
	if !strings.Contains(out, fmt.Sprintf("seq=%d", lo)) {
		t.Fatalf("report does not name the swapped pair's first seq %d:\n%s", lo, out)
	}
	if !strings.Contains(out, "t=") || !strings.Contains(out, "class=") || !strings.Contains(out, "node=") {
		t.Fatalf("report lacks (t, class, node) identification:\n%s", out)
	}

	// The rendered report must be byte-deterministic across invocations.
	out2 := captureStdout(t, func() { runDiverge([]string{fa, fb}) })
	if out != out2 {
		t.Fatal("diverge report differs between two runs on the same journals")
	}

	// And two identical recordings must compare clean with exit 0.
	clean2, err := replay.Execute(header, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	fa2 := filepath.Join(dir, "a2.digest.jsonl")
	if err := diverge.WriteFile(fa2, clean2.Journal); err != nil {
		t.Fatal(err)
	}
	out = captureStdout(t, func() { code = runDiverge([]string{fa, fa2}) })
	if code != 0 || !strings.Contains(out, "verdict: IDENTICAL") {
		t.Fatalf("identical journals: exit %d\n%s", code, out)
	}
	// ... and write byte-identical journals, modulo the manifest's
	// wall-clock start.
	startedAt := regexp.MustCompile(`"started_at": ?"[^"]*"`)
	var journals [2][]byte
	for i, f := range []string{fa, fa2} {
		body, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		journals[i] = startedAt.ReplaceAll(body, nil)
	}
	if !bytes.Equal(journals[0], journals[1]) {
		t.Fatal("two clean recordings wrote different journals")
	}
}
