package replay

import (
	"bytes"
	"encoding/json"
	"testing"

	"openoptics/internal/diverge"
	"openoptics/internal/runner"
)

func tinySpec(seed uint64) *diverge.Header {
	raw, err := json.Marshal(runner.Scenario{
		Arch: "rotornet-vlb", Trace: "rpc", Nodes: 4, SliceDurationNs: 100_000,
		Load: 0.3, Seed: seed, DurationMs: 3, EventDigest: true,
	})
	if err != nil {
		panic(err)
	}
	return &diverge.Header{WindowEvents: 256, Scenario: raw}
}

// TestExecuteDeterministic is the auditor's differential test: the same
// scenario must produce byte-identical journals on every execution, across a
// few seeds.
func TestExecuteDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		r1, err := Execute(tinySpec(seed), 0, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r2, err := Execute(tinySpec(seed), 0, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r1.Journal.Final.Events == 0 {
			t.Fatalf("seed %d: run digested no events", seed)
		}
		var b1, b2 bytes.Buffer
		if err := diverge.Write(&b1, r1.Journal); err != nil {
			t.Fatal(err)
		}
		if err := diverge.Write(&b2, r2.Journal); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
			t.Fatalf("seed %d: identical specs produced different journals", seed)
		}
	}
}

// TestExecuteSeedSensitivity checks the digest actually discriminates:
// different seeds must not share a chain.
func TestExecuteSeedSensitivity(t *testing.T) {
	r1, err := Execute(tinySpec(1), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Execute(tinySpec(2), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Journal.Final.Chain == r2.Journal.Final.Chain {
		t.Fatal("different seeds produced the same digest chain")
	}
}

// TestExecuteStateHashesRecorded checks every window and the final record
// carry a state hash, that the state moves between windows, and that the
// conservation probes stayed silent on a healthy run.
func TestExecuteStateHashesRecorded(t *testing.T) {
	r, err := Execute(tinySpec(7), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ws := r.Journal.Windows
	if len(ws) < 2 {
		t.Fatalf("%d windows of 256 events over 3ms", len(ws))
	}
	for _, w := range ws {
		if w.StateHash == "" {
			t.Fatalf("window %d has no state hash", w.Index)
		}
	}
	if ws[0].StateHash == ws[1].StateHash || r.Journal.Final.StateHash == "" {
		t.Fatalf("state hashes do not track the run: windows %s, %s; final %q",
			ws[0].StateHash, ws[1].StateHash, r.Journal.Final.StateHash)
	}
	if r.Journal.Final.Violations != 0 {
		t.Fatalf("healthy run reported %d invariant violations: %+v",
			r.Journal.Final.Violations, r.Journal.Violations)
	}
}

// TestExecuteCapture checks the capture window yields exactly the
// requested dispatch range.
func TestExecuteCapture(t *testing.T) {
	r, err := Execute(tinySpec(7), 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	got := r.Captured
	if len(got) != 10 {
		t.Fatalf("captured %d events, want 10", len(got))
	}
	for i, ev := range got {
		if ev.Index != uint64(10+i) {
			t.Fatalf("captured[%d].Index = %d, want %d", i, ev.Index, 10+i)
		}
	}
}

func TestExecuteNilSpec(t *testing.T) {
	if _, err := Execute(&diverge.Header{WindowEvents: 256}, 0, 0); err == nil {
		t.Fatal("a header without a scenario executed without error")
	}
	h := tinySpec(7)
	h.Scenario = []byte(`{"arch":"rotornet-vlb","warp":9}`)
	if _, err := Execute(h, 0, 0); err == nil {
		t.Fatal("a scenario with an unknown key executed without error")
	}
}
