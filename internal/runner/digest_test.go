package runner

import (
	"bytes"
	"path/filepath"
	"testing"
)

// TestSweepEventDigestDeterminism pins the determinism auditor into the
// sweep path: with event_digest set, every job's Result carries a final
// digest chain, and the chains — like the aggregates — are identical at
// -jobs 1 and -jobs 4. The auditor is passive: each job dispatches the
// events, and measures the FCTs, of the same job with event_digest off.
func TestSweepEventDigestDeterminism(t *testing.T) {
	spec := &Spec{
		Name:          "tiny-digest",
		Architectures: []string{"rotornet"},
		Routings:      []string{"vlb"},
		Nodes:         []int{4},
		Loads:         []float64{0.2},
		DurationMs:    2,
		Seed:          42,
		Replications:  2,
		EventDigest:   true,
	}
	run := func(spec *Spec, jobs int) (map[string]*Result, []byte) {
		t.Helper()
		ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
		sr, err := Sweep(spec, SweepOptions{Jobs: jobs, LedgerPath: ledger})
		if err != nil {
			t.Fatal(err)
		}
		if sr.Failed != 0 {
			t.Fatalf("jobs=%d: %d jobs failed", jobs, sr.Failed)
		}
		recs, err := ReadLedger(ledger)
		if err != nil {
			t.Fatal(err)
		}
		byID := make(map[string]*Result)
		for _, r := range SortRecords(recs) {
			byID[r.JobID] = r.Result
		}
		agg := NewAggregate(spec.Name, recs)
		var js bytes.Buffer
		if err := agg.WriteJSON(&js); err != nil {
			t.Fatal(err)
		}
		return byID, js.Bytes()
	}
	r1, js1 := run(spec, 1)
	r4, js4 := run(spec, 4)
	off := *spec
	off.EventDigest = false
	r0, _ := run(&off, 1)
	if len(r1) == 0 {
		t.Fatal("sweep produced no results")
	}
	for id, res := range r1 {
		if res.EventDigest == "" {
			t.Fatalf("%s: no event digest despite event_digest spec", id)
		}
		if res.InvariantViolations != 0 {
			t.Fatalf("%s: %d invariant violations on a healthy run", id, res.InvariantViolations)
		}
		if u := r0[id]; u == nil || u.Events != res.Events || u.FCTMeanNs != res.FCTMeanNs {
			t.Fatalf("%s: the auditor moved the run: %d events, FCT mean %g; without it %+v",
				id, res.Events, res.FCTMeanNs, u)
		}
		other := r4[id]
		if other == nil || other.EventDigest != res.EventDigest {
			t.Fatalf("%s: digest differs between -jobs 1 and -jobs 4: %q vs %v", id, res.EventDigest, other)
		}
	}
	// Replications use decorrelated seeds, so their digests must differ.
	seen := make(map[string]string)
	for id, res := range r1 {
		key := ScenarioKey(id)
		if prev, ok := seen[key]; ok && prev == res.EventDigest {
			t.Fatalf("%s: replications share a digest chain %s", key, prev)
		}
		seen[key] = res.EventDigest
	}
	if !bytes.Equal(js1, js4) {
		t.Fatal("summary JSON differs between -jobs 1 and -jobs 4")
	}
	if !bytes.Contains(js1, []byte("event_digest")) {
		t.Fatal("summary JSON carries no event_digest field")
	}
}

// TestSpecWithoutDigestUnchanged guards the omitempty discipline: a spec
// that never mentions event_digest keeps its pre-auditor config digest and
// produces results with no digest fields.
func TestSpecWithoutDigestUnchanged(t *testing.T) {
	s := tinySpec()
	withOff := *s
	withOff.EventDigest = false
	if s.ConfigDigest() != withOff.ConfigDigest() {
		t.Fatal("explicit false event_digest changed the config digest")
	}
	withOn := *s
	withOn.EventDigest = true
	if s.ConfigDigest() == withOn.ConfigDigest() {
		t.Fatal("event_digest: a digest-on sweep must resolve to a different config")
	}
	for _, job := range s.Expand() {
		if job.EventDigest {
			t.Fatal("digest leaked into a digest-off scenario")
		}
	}
}
