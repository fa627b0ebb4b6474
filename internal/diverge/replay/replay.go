// Package replay re-executes the run a digest journal's header describes —
// the determinism auditor's bisection arm. Exploiting the engine's
// bit-exact reproducibility, it starts the journal's runner.Scenario
// through the same Scenario.Start every caller wires runs with, re-runs it
// with per-event capture armed over one divergent window, and names the
// exact first dispatch where two runs part ways. It lives under
// internal/diverge rather than in it because it builds networks; the
// journal format itself must stay importable *from* the root package.
package replay

import (
	"bytes"
	"encoding/json"
	"fmt"

	"openoptics"
	"openoptics/internal/diverge"
	"openoptics/internal/runner"
	"openoptics/internal/sim"
)

// Run is one re-execution's evidence: the rebuilt journal (for verifying
// the replay reproduced the original run) and the captured events.
type Run struct {
	Auditor  *openoptics.Auditor
	Journal  *diverge.Journal
	Captured []sim.CapturedEvent
}

// Execute re-runs the journal header's scenario with the header's auditor
// geometry and perturbation, and with event capture armed over dispatch
// indexes [capStart, capEnd) (equal bounds disable capture). Like oosim,
// it seeds the arrivals with the scenario seed and runs for the arrival
// window plus a quarter.
func Execute(h *diverge.Header, capStart, capEnd uint64) (*Run, error) {
	if len(h.Scenario) == 0 {
		return nil, fmt.Errorf("journal carries no scenario (config-file or non-replay-workload run)")
	}
	var sc runner.Scenario
	dec := json.NewDecoder(bytes.NewReader(h.Scenario))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("journal scenario: %w", err)
	}
	sc.EventDigest = true // a journal exists only for a digested run
	st, err := sc.Start(runner.Wiring{
		Digest:   openoptics.DigestOptions{WindowEvents: h.WindowEvents},
		PerturbA: h.PerturbA,
		PerturbB: h.PerturbB,
	})
	if err != nil {
		return nil, err
	}
	if err := st.StartTrace(sc.Seed); err != nil {
		return nil, err
	}
	if capEnd > capStart {
		st.Auditor.Digest().SetCapture(capStart, capEnd)
	}
	if err := st.Run(sc.Duration() + sc.Duration()/4); err != nil {
		return nil, err
	}
	j, err := st.Journal(nil)
	if err != nil {
		return nil, err
	}
	return &Run{Auditor: st.Auditor, Journal: j, Captured: st.Auditor.Digest().Captured()}, nil
}

// Bisect narrows a window-level divergence (rep.Window, from
// diverge.Compare) to the exact first divergent event by re-running both
// journals' scenarios with capture armed over the divergent window. Each
// replay is verified against its journal's final chain before the capture
// is trusted — a replay that fails to reproduce its own run (different
// binary, build tags, or environment) is an error, not evidence.
func Bisect(rep *diverge.Report, a, b *diverge.Journal, contextN int) error {
	if rep.Identical || rep.Window == nil {
		return nil
	}
	start, end := rep.Window.StartEvents, rep.Window.EndEvents
	ra, err := Execute(&a.Header, start, end)
	if err != nil {
		return fmt.Errorf("re-running journal A: %w", err)
	}
	if err := verifyReproduced("A", ra.Journal, a); err != nil {
		return err
	}
	rb, err := Execute(&b.Header, start, end)
	if err != nil {
		return fmt.Errorf("re-running journal B: %w", err)
	}
	if err := verifyReproduced("B", rb.Journal, b); err != nil {
		return err
	}
	ca, cb := ra.Captured, rb.Captured
	n := len(ca)
	if len(cb) < n {
		n = len(cb)
	}
	if contextN < 0 {
		contextN = 0
	}
	for i := 0; i < n; i++ {
		if ca[i] != cb[i] {
			ea, eb := diverge.NewEventRec(ca[i]), diverge.NewEventRec(cb[i])
			rep.Event = &diverge.EventDiff{
				Kind:     "mismatch",
				Index:    ca[i].Index,
				A:        &ea,
				B:        &eb,
				ContextA: eventRecs(ca[maxInt(0, i-contextN):i]),
				ContextB: eventRecs(cb[maxInt(0, i-contextN):i]),
			}
			return nil
		}
	}
	if len(ca) != len(cb) {
		d := &diverge.EventDiff{
			Kind:     "length",
			ContextA: eventRecs(ca[maxInt(0, n-contextN):n]),
			ContextB: eventRecs(cb[maxInt(0, n-contextN):n]),
		}
		if len(ca) > n {
			e := diverge.NewEventRec(ca[n])
			d.A, d.Index = &e, ca[n].Index
		} else {
			e := diverge.NewEventRec(cb[n])
			d.B, d.Index = &e, cb[n].Index
		}
		rep.Event = d
		return nil
	}
	return fmt.Errorf("re-run captures over window [%d, %d) are identical; the journals' divergence is not reproducible from their scenarios", start, end)
}

func verifyReproduced(label string, got, want *diverge.Journal) error {
	if got.Final.Chain != want.Final.Chain || got.Final.Events != want.Final.Events {
		return fmt.Errorf("re-run did not reproduce journal %s (events %d chain %s, journal has %d %s): different binary, build tags, or an unreplayable run",
			label, got.Final.Events, got.Final.Chain, want.Final.Events, want.Final.Chain)
	}
	return nil
}

func eventRecs(es []sim.CapturedEvent) []diverge.EventRec {
	if len(es) == 0 {
		return nil
	}
	out := make([]diverge.EventRec, len(es))
	for i, e := range es {
		out[i] = diverge.NewEventRec(e)
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
