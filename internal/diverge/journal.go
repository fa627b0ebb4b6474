// Package diverge defines the determinism auditor's on-disk journal — the
// windowed event-digest hash-chain, each window's state hash, and the
// invariant violations one run emits (`oosim -digest-out`) — and the
// comparison that finds where two journals first disagree. The package is
// pure data: it imports only the sim types and the provenance manifest, so
// both the root openoptics package (which writes journals) and ooctl
// (which compares them) can use it. The re-run bisection that narrows a
// divergent window to an exact event lives in the replay subpackage, which
// rebuilds networks and therefore cannot be imported from the root.
package diverge

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"openoptics/internal/provenance"
	"openoptics/internal/sim"
)

// SchemaVersion is the journal and report schema version. Version 2
// replaced v1's replay spec with the run's Scenario; Read still maps a v1
// header onto it. Version 3 dropped the checkpoint records, which were
// engine events, for a state hash on every window and on the final record;
// v1 and v2 journals still read and compare window by window.
const SchemaVersion = 3

// Hex renders a 64-bit digest value the way every journal field stores it:
// fixed-width lowercase hex, so journals and reports are byte-deterministic
// and trivially diffable.
func Hex(v uint64) string { return fmt.Sprintf("%016x", v) }

// Header is the journal's first line: run identity plus auditor geometry.
type Header struct {
	Kind          string               `json:"kind"` // "header"
	SchemaVersion int                  `json:"schema_version"`
	Manifest      *provenance.Manifest `json:"manifest,omitempty"`
	WindowEvents  uint64               `json:"window_events"`
	// PerturbA and PerturbB are the sequence-number pair PerturbSwapSeq
	// swapped during the recorded run (simdebug builds); zero when none.
	PerturbA uint64 `json:"perturb_a,omitempty"`
	PerturbB uint64 `json:"perturb_b,omitempty"`
	// Scenario is the run's runner.Scenario, recorded only when the run
	// can be re-executed in-process (a trace-replay run configured by its
	// flags alone); without it `ooctl diverge` still localizes divergence
	// to a window, just not to an event. It stays raw JSON because the
	// root package, which the runner imports, writes journals.
	Scenario json.RawMessage `json:"scenario,omitempty"`
}

// WindowRec is one closed digest window. StateHash hashes the network and
// pool state as the window closed (absent before schema v3).
type WindowRec struct {
	Kind      string `json:"kind"` // "window"
	Index     int    `json:"index"`
	EndEvents uint64 `json:"end_events"`
	EndTNs    int64  `json:"end_t_ns"`
	Hash      string `json:"hash"`
	Chain     string `json:"chain"`
	StateHash string `json:"state_hash,omitempty"`
}

// ViolationRec is one invariant-probe violation.
type ViolationRec struct {
	Kind   string `json:"kind"` // "violation"
	TNs    int64  `json:"t_ns"`
	Events uint64 `json:"events"`
	Probe  string `json:"probe"`
	Detail string `json:"detail"`
}

// FinalRec is the journal's last line: stream totals and the running chain
// including the open partial window, so two complete runs compare equal
// iff their full dispatch streams matched, plus the end-of-run state hash.
type FinalRec struct {
	Kind       string `json:"kind"` // "final"
	Events     uint64 `json:"events"`
	LastTNs    int64  `json:"last_t_ns"`
	Chain      string `json:"chain"`
	StateHash  string `json:"state_hash,omitempty"`
	Windows    int    `json:"windows"`
	Violations uint64 `json:"violations"`
	// PerturbHint is the first same-instant adjacent dispatch pair whose
	// order a sequence swap would invert ("a:b") — the operand a later
	// `oosim -perturb-swap` run can use to inject a minimal fault.
	PerturbHint string `json:"perturb_hint,omitempty"`
	// Interrupted marks a journal flushed on the SIGINT graceful-drain
	// path: complete up to the interrupt, comparable only against another
	// run truncated at the same point.
	Interrupted bool `json:"interrupted,omitempty"`
}

// Journal is one run's parsed digest journal.
type Journal struct {
	Header     Header
	Windows    []WindowRec
	Violations []ViolationRec
	Final      FinalRec
}

// Write emits the journal as JSONL: header, windows, violations, final —
// each a self-describing object with a "kind" field.
func Write(w io.Writer, j *Journal) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	j.Header.Kind = "header"
	if err := enc.Encode(&j.Header); err != nil {
		return err
	}
	for i := range j.Windows {
		j.Windows[i].Kind = "window"
		if err := enc.Encode(&j.Windows[i]); err != nil {
			return err
		}
	}
	for i := range j.Violations {
		j.Violations[i].Kind = "violation"
		if err := enc.Encode(&j.Violations[i]); err != nil {
			return err
		}
	}
	j.Final.Kind = "final"
	if err := enc.Encode(&j.Final); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteFile writes the journal to path.
func WriteFile(path string, j *Journal) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, j); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Read parses a JSONL journal. Unknown kinds are skipped (forward
// compatibility, and the checkpoint records of v1 and v2 journals); a
// missing header or final line is an error.
func Read(r io.Reader) (*Journal, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	j := &Journal{}
	sawHeader, sawFinal := false, false
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var kind struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal(b, &kind); err != nil {
			return nil, fmt.Errorf("journal line %d: %w", line, err)
		}
		switch kind.Kind {
		case "header":
			if err := json.Unmarshal(b, &j.Header); err != nil {
				return nil, fmt.Errorf("journal line %d: %w", line, err)
			}
			if j.Header.SchemaVersion > SchemaVersion {
				return nil, fmt.Errorf("journal schema v%d is newer than this build understands (v%d)",
					j.Header.SchemaVersion, SchemaVersion)
			}
			if j.Header.SchemaVersion < 2 {
				if err := upgradeV1(b, &j.Header); err != nil {
					return nil, fmt.Errorf("journal line %d: %w", line, err)
				}
			}
			sawHeader = true
		case "window":
			var w WindowRec
			if err := json.Unmarshal(b, &w); err != nil {
				return nil, fmt.Errorf("journal line %d: %w", line, err)
			}
			j.Windows = append(j.Windows, w)
		case "violation":
			var v ViolationRec
			if err := json.Unmarshal(b, &v); err != nil {
				return nil, fmt.Errorf("journal line %d: %w", line, err)
			}
			j.Violations = append(j.Violations, v)
		case "final":
			if err := json.Unmarshal(b, &j.Final); err != nil {
				return nil, fmt.Errorf("journal line %d: %w", line, err)
			}
			sawFinal = true
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !sawHeader {
		return nil, fmt.Errorf("not a digest journal: no header line")
	}
	if !sawFinal {
		return nil, fmt.Errorf("truncated digest journal: no final line")
	}
	return j, nil
}

// v1Renames maps the keys of a schema-v1 header's replay object that the
// Scenario spells differently; slice_us also changes unit.
var v1Renames = map[string]string{
	"workload":     "trace",
	"collect_us":   "collect_interval_us",
	"reprogram_us": "reconfig_period_us",
	"drain_us":     "reconfig_drain_us",
}

// upgradeV1 maps a schema-v1 header's replay object onto the Scenario: the
// perturbation pair moves up into the header, the auditor geometry it
// duplicated from the header is dropped, and every v1 journal was recorded
// with one host per node and the auditor attached.
func upgradeV1(line []byte, h *Header) error {
	var v1 struct {
		Replay map[string]json.RawMessage `json:"replay"`
	}
	if err := json.Unmarshal(line, &v1); err != nil || v1.Replay == nil {
		return err
	}
	sc := map[string]any{"event_digest": true}
	for k, v := range v1.Replay {
		var err error
		switch k {
		case "window_events", "checkpoint_every_ns":
		case "hosts_per_node":
			var n int
			if err = json.Unmarshal(v, &n); err == nil && n > 1 {
				err = fmt.Errorf("%d hosts per node has no scenario equivalent", n)
			}
		case "perturb_a":
			err = json.Unmarshal(v, &h.PerturbA)
		case "perturb_b":
			err = json.Unmarshal(v, &h.PerturbB)
		case "slice_us":
			var us int64
			err = json.Unmarshal(v, &us)
			sc["slice_duration_ns"] = us * 1000
		default:
			if to, ok := v1Renames[k]; ok {
				k = to
			}
			sc[k] = v
		}
		if err != nil {
			return fmt.Errorf("v1 replay spec key %q: %w", k, err)
		}
	}
	raw, err := json.Marshal(sc)
	h.Scenario = raw
	return err
}

// ReadFile parses the journal at path.
func ReadFile(path string) (*Journal, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	j, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return j, nil
}

// EventRec is one dispatch in a report, rendered from a sim.CapturedEvent
// with the class named and the fingerprint in hex.
type EventRec struct {
	Index       uint64 `json:"index"`
	TNs         int64  `json:"t_ns"`
	Seq         uint64 `json:"seq"`
	Class       string `json:"class"`
	Node        int32  `json:"node"`
	Fingerprint string `json:"fingerprint"`
	V           int64  `json:"v"`
}

// NewEventRec converts a captured dispatch to its report form.
func NewEventRec(e sim.CapturedEvent) EventRec {
	return EventRec{
		Index: e.Index, TNs: e.TNs, Seq: e.Seq,
		Class: e.Class.String(), Node: e.Node,
		Fingerprint: Hex(e.Fingerprint), V: e.V,
	}
}
