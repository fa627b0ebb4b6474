package diverge

import (
	"encoding/json"
	"fmt"
	"io"
)

// WindowDiff names the first digest window where two journals disagree,
// with each side's event hash and the state hash recorded as it closed.
type WindowDiff struct {
	Index       int    `json:"index"`
	StartEvents uint64 `json:"start_events"` // first dispatch index the window covers
	EndEvents   uint64 `json:"end_events"`   // exclusive
	HashA       string `json:"hash_a"`
	HashB       string `json:"hash_b"`
	StateHashA  string `json:"state_hash_a,omitempty"`
	StateHashB  string `json:"state_hash_b,omitempty"`
}

// EventDiff is the re-run bisection's verdict: the exact first dispatch at
// which the two runs diverged, with before-context from each side. Kind is
// "mismatch" (both streams have an event at Index and they differ) or
// "length" (the streams are identical until the shorter one ends).
type EventDiff struct {
	Kind     string     `json:"kind"`
	Index    uint64     `json:"index"`
	A        *EventRec  `json:"a,omitempty"`
	B        *EventRec  `json:"b,omitempty"`
	ContextA []EventRec `json:"context_a,omitempty"`
	ContextB []EventRec `json:"context_b,omitempty"`
}

// Report is the byte-deterministic outcome of comparing two journals.
type Report struct {
	SchemaVersion int  `json:"schema_version"`
	Identical     bool `json:"identical"`
	// ConfigMatch is false when the runs' provenance config digests
	// differ — expected for deliberate perturbations, suspicious
	// otherwise.
	ConfigMatch  bool   `json:"config_match"`
	WindowEvents uint64 `json:"window_events"`

	EventsA uint64 `json:"events_a"`
	EventsB uint64 `json:"events_b"`
	ChainA  string `json:"chain_a"`
	ChainB  string `json:"chain_b"`

	ViolationsA uint64 `json:"violations_a,omitempty"`
	ViolationsB uint64 `json:"violations_b,omitempty"`

	Window *WindowDiff `json:"divergent_window,omitempty"`
	Event  *EventDiff  `json:"divergent_event,omitempty"`

	// Note carries non-fatal caveats: missing scenarios, interrupted
	// journals.
	Note string `json:"note,omitempty"`
}

// Compare finds where two journals first disagree. It never re-runs
// anything — window localization comes from the journals alone; the
// replay subpackage narrows the divergent window to an event.
func Compare(a, b *Journal) (*Report, error) {
	if a.Header.WindowEvents != b.Header.WindowEvents {
		return nil, fmt.Errorf("window granularity differs (%d vs %d events): journals are not comparable",
			a.Header.WindowEvents, b.Header.WindowEvents)
	}
	r := &Report{
		SchemaVersion: SchemaVersion,
		ConfigMatch:   configDigest(a) == configDigest(b),
		WindowEvents:  a.Header.WindowEvents,
		EventsA:       a.Final.Events,
		EventsB:       b.Final.Events,
		ChainA:        a.Final.Chain,
		ChainB:        b.Final.Chain,
		ViolationsA:   a.Final.Violations,
		ViolationsB:   b.Final.Violations,
	}
	if a.Final.Interrupted || b.Final.Interrupted {
		r.Note = appendNote(r.Note, "at least one journal was flushed on interrupt (truncated run)")
	}
	r.Identical = a.Final.Chain == b.Final.Chain && a.Final.Events == b.Final.Events
	if r.Identical {
		return r, nil
	}
	w := a.Header.WindowEvents
	n := len(a.Windows)
	if len(b.Windows) < n {
		n = len(b.Windows)
	}
	for i := 0; i < n; i++ {
		if wa, wb := a.Windows[i], b.Windows[i]; wa.Hash != wb.Hash {
			r.Window = &WindowDiff{
				Index:       i,
				StartEvents: uint64(i) * w,
				EndEvents:   uint64(i+1) * w,
				HashA:       wa.Hash,
				HashB:       wb.Hash,
				StateHashA:  wa.StateHash,
				StateHashB:  wb.StateHash,
			}
			break
		}
	}
	if r.Window == nil {
		// Every shared closed window matches: the divergence is in the
		// tail — the open partial window, or one stream simply ran longer.
		start := uint64(n) * w
		end := r.EventsA
		if r.EventsB < end {
			end = r.EventsB
		}
		end++ // cover the length-divergence boundary itself
		r.Window = &WindowDiff{Index: n, StartEvents: start, EndEvents: end}
		if n < len(a.Windows) {
			r.Window.HashA, r.Window.StateHashA = a.Windows[n].Hash, a.Windows[n].StateHash
		}
		if n < len(b.Windows) {
			r.Window.HashB, r.Window.StateHashB = b.Windows[n].Hash, b.Windows[n].StateHash
		}
	}
	return r, nil
}

func configDigest(j *Journal) string {
	if j.Header.Manifest == nil {
		return ""
	}
	return j.Header.Manifest.ConfigDigest
}

func appendNote(note, add string) string {
	if note == "" {
		return add
	}
	return note + "; " + add
}

// Render writes the human-readable report. Output is a pure function of
// the report — no timestamps, no map iteration — so repeated renders are
// byte-identical (the same discipline as `ooctl regress`).
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "determinism diverge: %d-event windows\n", r.WindowEvents)
	cfg := "match"
	if !r.ConfigMatch {
		cfg = "MISMATCH (different resolved configs; divergence may be intended)"
	}
	fmt.Fprintf(w, "  config digests: %s\n", cfg)
	fmt.Fprintf(w, "  events: A=%d B=%d\n", r.EventsA, r.EventsB)
	fmt.Fprintf(w, "  chain:  A=%s B=%s\n", r.ChainA, r.ChainB)
	if r.ViolationsA != 0 || r.ViolationsB != 0 {
		fmt.Fprintf(w, "  invariant violations: A=%d B=%d\n", r.ViolationsA, r.ViolationsB)
	}
	if r.Note != "" {
		fmt.Fprintf(w, "  note: %s\n", r.Note)
	}
	if r.Identical {
		fmt.Fprintf(w, "verdict: IDENTICAL — the dispatch streams matched event for event\n")
		return
	}
	fmt.Fprintf(w, "verdict: DIVERGED\n")
	if d := r.Window; d != nil {
		fmt.Fprintf(w, "first divergent window: #%d  events [%d, %d)", d.Index, d.StartEvents, d.EndEvents)
		if d.HashA != "" || d.HashB != "" {
			fmt.Fprintf(w, "  hash A=%s B=%s", orDash(d.HashA), orDash(d.HashB))
		}
		if d.StateHashA != "" || d.StateHashB != "" {
			fmt.Fprintf(w, "  state A=%s B=%s", orDash(d.StateHashA), orDash(d.StateHashB))
		}
		fmt.Fprintln(w)
	}
	if e := r.Event; e != nil {
		switch e.Kind {
		case "length":
			fmt.Fprintf(w, "first divergent event: streams identical through index %d; the shorter run ended there\n", e.Index)
		default:
			fmt.Fprintf(w, "first divergent event: index %d\n", e.Index)
			if e.A != nil {
				fmt.Fprintf(w, "  A: %s\n", renderEvent(*e.A))
			}
			if e.B != nil {
				fmt.Fprintf(w, "  B: %s\n", renderEvent(*e.B))
			}
		}
		if len(e.ContextA) > 0 {
			fmt.Fprintf(w, "  context A (preceding):\n")
			for _, ev := range e.ContextA {
				fmt.Fprintf(w, "    %s\n", renderEvent(ev))
			}
		}
		if len(e.ContextB) > 0 {
			fmt.Fprintf(w, "  context B (preceding):\n")
			for _, ev := range e.ContextB {
				fmt.Fprintf(w, "    %s\n", renderEvent(ev))
			}
		}
	} else {
		fmt.Fprintf(w, "first divergent event: not bisected (re-run unavailable; see notes or pass journals that carry their scenarios)\n")
	}
}

func renderEvent(e EventRec) string {
	return fmt.Sprintf("t=%dns seq=%d class=%s node=%d fp=%s v=%d (index %d)",
		e.TNs, e.Seq, e.Class, e.Node, e.Fingerprint, e.V, e.Index)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// WriteJSON writes the machine-readable report.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
