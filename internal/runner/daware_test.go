package runner

import (
	"bytes"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Every axis rejection must name the offending key AND value, so a typo'd
// sweep spec fails with a message that points at the exact field.
func TestSpecAxisErrorsNameKeyAndValue(t *testing.T) {
	cases := []struct {
		spec Spec
		key  string
		val  string
	}{
		{Spec{Architectures: []string{"warpdrive"}}, "architectures", "warpdrive"},
		{Spec{Architectures: []string{"rotornet"}, Routings: []string{"teleport"}}, "routings", "teleport"},
		{Spec{Architectures: []string{"rotornet"}, Traces: []string{"webdump"}}, "traces", "webdump"},
		{Spec{Architectures: []string{"daware"}, Policies: []string{"psychic"}}, "policies", "psychic"},
		{Spec{Architectures: []string{"daware"}, Predictors: []string{"oracle"}}, "predictors", "oracle"},
		{Spec{Architectures: []string{"rotornet"}, LoadShape: "sawtooth"}, "load_shape", "sawtooth"},
		{Spec{Architectures: []string{"rotornet"}, Profile: "speed"}, "profile", "speed"},
		{Spec{Architectures: []string{"rotornet"}, Nodes: []int{1}}, "nodes", "1"},
		{Spec{Architectures: []string{"rotornet"}, Loads: []float64{1.5}}, "loads", "1.5"},
		{Spec{Architectures: []string{"daware"}, CollectIntervalsUs: []int64{0}}, "collect_intervals_us", "0"},
		{Spec{Architectures: []string{"daware"}, ReconfigPeriodsUs: []int64{-5}}, "reconfig_periods_us", "-5"},
		{Spec{Architectures: []string{"rotornet"}, ShapeAmplitude: 1.5}, "shape_amplitude", "1.5"},
		{Spec{Architectures: []string{"rotornet"}, HotFrac: 2}, "hot_frac", "2"},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("spec with bad %s validated", c.key)
			continue
		}
		msg := err.Error()
		if !strings.Contains(msg, c.key) || !strings.Contains(msg, c.val) {
			t.Errorf("error for %s=%s names neither key nor value: %q", c.key, c.val, msg)
		}
	}
}

func TestDawareExpandAxes(t *testing.T) {
	s := &Spec{
		Name:          "ax",
		Architectures: []string{"daware"},
		Policies:      []string{"oblivious", "aware"},
		Predictors:    []string{"last", "ewma"},
		Nodes:         []int{8},
		Loads:         []float64{0.3},
		DurationMs:    1,
	}
	jobs := s.Expand()
	if len(jobs) != 4 {
		t.Fatalf("expanded %d jobs, want 2 policies x 2 predictors = 4", len(jobs))
	}
	seen := make(map[string]bool)
	for _, j := range jobs {
		if j.Scenario.Policy == "" || j.Scenario.Predictor == "" {
			t.Fatalf("daware scenario missing policy/predictor: %+v", j.Scenario)
		}
		if !strings.Contains(j.ID, j.Scenario.Policy) ||
			!strings.Contains(j.ID, j.Scenario.Predictor) {
			t.Fatalf("job ID %q does not carry policy/predictor", j.ID)
		}
		seen[j.ID] = true
	}
	if len(seen) != 4 {
		t.Fatalf("job IDs not unique: %v", seen)
	}
	// Defaults fill the demand axes only for daware specs; other
	// architectures collapse them so their job IDs and config digests
	// stay exactly as before the subsystem existed.
	other := &Spec{Architectures: []string{"rotornet"}, Policies: []string{"aware", "reqgrant"}}
	jobs = other.Expand()
	if len(jobs) != 1 || jobs[0].Scenario.Policy != "" {
		t.Fatalf("rotornet should collapse the policy axis, got %+v", jobs)
	}
	plain := (&Spec{Architectures: []string{"rotornet"}}).withDefaults()
	if plain.Policies != nil || plain.Predictors != nil ||
		plain.CollectIntervalsUs != nil || plain.ReconfigPeriodsUs != nil {
		t.Fatalf("non-daware defaults grew demand axes: %+v", plain)
	}
}

// TestDawareSweepAcceptance runs the committed demand-aware sweep spec at
// two worker counts and checks the headline claims: byte-identical
// summaries (summary.json modulo the manifest's wall-clock start), the
// aware policy beating the oblivious baseline on median FCT under skewed
// pair demand, and reconfigurations actually happening under both
// demand-aware policies (none for the oblivious control).
func TestDawareSweepAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep; skipped in -short")
	}
	spec, err := LoadSpec(filepath.Join("..", "..", "testdata", "sweep_daware.json"))
	if err != nil {
		t.Fatal(err)
	}
	startedAt := regexp.MustCompile(`"started_at": *"[^"]*"`)
	run := func(jobs int) (csv, summary []byte, recs []Record) {
		t.Helper()
		ledger := filepath.Join(t.TempDir(), "ledger.jsonl")
		sr, err := Sweep(spec, SweepOptions{Jobs: jobs, LedgerPath: ledger})
		if err != nil {
			t.Fatal(err)
		}
		if sr.Failed != 0 {
			t.Fatalf("jobs=%d: %d jobs failed", jobs, sr.Failed)
		}
		recs, hdr, err := ReadLedgerFull(ledger)
		if err != nil {
			t.Fatal(err)
		}
		agg := NewAggregate(spec.Name, recs)
		agg.Stamp(hdr)
		var c, j bytes.Buffer
		if err := agg.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		if err := agg.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		return c.Bytes(), startedAt.ReplaceAll(j.Bytes(), []byte(`"started_at": ""`)), SortRecords(recs)
	}
	csv1, json1, recs := run(1)
	csv4, json4, _ := run(4)
	if !bytes.Equal(csv1, csv4) {
		t.Fatalf("summary CSV differs between -jobs 1 and -jobs 4:\n--- jobs=1\n%s\n--- jobs=4\n%s", csv1, csv4)
	}
	if !bytes.Equal(json1, json4) {
		t.Fatalf("summary JSON differs between -jobs 1 and -jobs 4 beyond started_at:\n--- jobs=1\n%s\n--- jobs=4\n%s", json1, json4)
	}

	byPolicy := make(map[string]*Result)
	for _, r := range recs {
		if r.Status == StatusOK && r.Scenario != nil {
			byPolicy[r.Scenario.Policy] = r.Result
		}
	}
	obl, aw, rg := byPolicy["oblivious"], byPolicy["aware"], byPolicy["reqgrant"]
	if obl == nil || aw == nil || rg == nil {
		t.Fatalf("sweep missing policies, got %v", byPolicy)
	}
	if aw.FCTP50Ns >= obl.FCTP50Ns {
		t.Fatalf("aware p50 %.0f ns not better than oblivious %.0f ns",
			aw.FCTP50Ns, obl.FCTP50Ns)
	}
	if aw.Reconfigs == 0 || rg.Reconfigs == 0 {
		t.Fatalf("mid-run reconfigurations: aware=%d reqgrant=%d, want both >= 1", aw.Reconfigs, rg.Reconfigs)
	}
	if obl.Reconfigs != 0 {
		t.Fatalf("oblivious baseline reconfigured %d times, want 0", obl.Reconfigs)
	}
	if aw.DemandEpochs == 0 || obl.DemandEpochs == 0 {
		t.Fatalf("demand epochs missing: aware=%d oblivious=%d",
			aw.DemandEpochs, obl.DemandEpochs)
	}
}
