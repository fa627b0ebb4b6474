package traceanalysis_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"openoptics/internal/core"
	"openoptics/internal/traceanalysis"
)

func goldenTraces(t *testing.T) []*core.PktTrace {
	t.Helper()
	var out []*core.PktTrace
	if _, err := traceanalysis.ScanFile(goldenPath, func(tr *core.PktTrace) {
		out = append(out, tr)
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func export(t *testing.T, traces []*core.PktTrace, opts traceanalysis.ExportOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := traceanalysis.ExportChromeTrace(&buf, traces, opts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestExportValidChromeTrace pins the export acceptance criterion: the
// output is valid Chrome trace-event JSON with nonzero events, carrying
// every event species the layout promises.
func TestExportValidChromeTrace(t *testing.T) {
	raw := export(t, goldenTraces(t), traceanalysis.ExportOptions{})
	n, err := traceanalysis.ValidateChromeTrace(raw)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("export has zero events")
	}
	var ct struct {
		TraceEvents     []map[string]any `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &ct); err != nil {
		t.Fatal(err)
	}
	if ct.DisplayTimeUnit != "ns" {
		t.Fatalf("displayTimeUnit = %q, want ns", ct.DisplayTimeUnit)
	}
	byPh := map[string]int{}
	names := map[string]bool{}
	for _, ev := range ct.TraceEvents {
		ph, _ := ev["ph"].(string)
		byPh[ph]++
		if name, ok := ev["name"].(string); ok {
			names[name] = true
		}
		if _, ok := ev["pid"]; !ok {
			t.Fatalf("event without pid: %v", ev)
		}
	}
	for _, ph := range []string{"M", "X", "C", "s", "f", "i"} {
		if byPh[ph] == 0 {
			t.Fatalf("no %q events in export (have %v)", ph, byPh)
		}
	}
	for _, name := range []string{"process_name", "slice_wait", "queueing", "tx", "queue_bytes", "dep_slice"} {
		if !names[name] {
			t.Fatalf("export missing %q events", name)
		}
	}
}

// TestExportDeterministic pins byte-for-byte determinism of the export.
func TestExportDeterministic(t *testing.T) {
	a := export(t, goldenTraces(t), traceanalysis.ExportOptions{})
	b := export(t, goldenTraces(t), traceanalysis.ExportOptions{})
	if !bytes.Equal(a, b) {
		t.Fatal("two exports of the same traces differ")
	}
}

// TestExportArrowCap pins MaxFlowPackets: negative disables arrows, a
// positive cap bounds distinct arrow ids.
func TestExportArrowCap(t *testing.T) {
	traces := goldenTraces(t)
	noArrows := export(t, traces, traceanalysis.ExportOptions{MaxFlowPackets: -1})
	if bytes.Contains(noArrows, []byte(`"ph":"s"`)) {
		t.Fatal("arrows emitted with MaxFlowPackets < 0")
	}
	capped := export(t, traces, traceanalysis.ExportOptions{MaxFlowPackets: 3})
	var ct struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
			ID string `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(capped, &ct); err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, ev := range ct.TraceEvents {
		if ev.Ph == "s" {
			ids[ev.ID] = true
		}
	}
	if len(ids) != 3 {
		t.Fatalf("arrow packets = %d, want cap 3", len(ids))
	}
}

// TestValidateRejectsDamage covers the validator's failure paths.
func TestValidateRejectsDamage(t *testing.T) {
	if _, err := traceanalysis.ValidateChromeTrace([]byte("not json")); err == nil {
		t.Fatal("validator accepted non-JSON")
	}
	if _, err := traceanalysis.ValidateChromeTrace(
		[]byte(`{"traceEvents":[{"name":"x","ts":1,"pid":1,"tid":1}]}`)); err == nil {
		t.Fatal("validator accepted an event without ph")
	}
}
