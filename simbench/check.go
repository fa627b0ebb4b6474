package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
)

// reference.json holds each workload's outcome at defaultSeed. Refresh an
// entry from the "outcome:" line a run prints, and only for a change that
// is meant to move the simulated result.
//
//go:embed reference.json
var referenceJSON []byte

func loadReference() (map[string]outcome, error) {
	var ref map[string]outcome
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// band is how far one outcome may sit from its reference value at
// defaultSeed: within [lo, hi] times the reference, or within slack of it
// in absolute terms, whichever is wider.
type band struct {
	name   string
	get    func(outcome) float64
	lo, hi float64
	slack  float64
}

// bands admit a deliberate same-instant reorder, not only bit-exact
// replays. Flow arrivals come from the replay's own random stream, so
// flows_started is exact. Fusing per-hop events, as the roadmap plans,
// removes about a third of all events, hence the wide events band. A
// reorder nudges TCP timing, hence the tolerance on packets, completions,
// drops and the FCT percentiles (wider at p99, which rests on few flows).
var bands = []band{
	{"events", func(o outcome) float64 { return float64(o.Events) }, 0.5, 1.2, 0},
	{"packets", func(o outcome) float64 { return float64(o.Packets) }, 0.95, 1.05, 0},
	{"flows_started", func(o outcome) float64 { return float64(o.FlowsStarted) }, 1, 1, 0},
	{"flows_completed", func(o outcome) float64 { return float64(o.FlowsCompleted) }, 0.97, 1.03, 0},
	{"fct_p50_ns", func(o outcome) float64 { return o.FCTP50Ns }, 0.85, 1.15, 0},
	{"fct_p99_ns", func(o outcome) float64 { return o.FCTP99Ns }, 0.75, 1.25, 0},
	{"drops", func(o outcome) float64 { return float64(o.Drops) }, 0.75, 1.25, 100},
	{"reprograms", func(o outcome) float64 { return float64(o.Reprograms) }, 0.75, 1.25, 2},
}

// outsideBand lists the outcomes that fall outside the reference band.
func outsideBand(got, ref outcome) []string {
	var bad []string
	for _, b := range bands {
		g, r := b.get(got), b.get(ref)
		lo := math.Min(b.lo*r, r-b.slack)
		hi := math.Max(b.hi*r, r+b.slack)
		if g < lo || g > hi {
			bad = append(bad, fmt.Sprintf("%s %.6g outside reference band [%.6g, %.6g]", b.name, g, lo, hi))
		}
	}
	return bad
}

// verify lists why a finished run is wrong; nil means it passed. It checks
// a conservation law evaluated from outside the program, the workload's
// degenerate outcomes, and at defaultSeed the reference band.
func verify(w *workload, seed uint64, fp fingerprint, ref map[string]outcome) []string {
	var bad []string
	o, c := fp.Outcome, fp.Counts
	if o.Packets != c.PoolPuts+uint64(c.PoolOutstanding) {
		bad = append(bad, fmt.Sprintf("packet pool: gets %d != puts %d + outstanding %d",
			o.Packets, c.PoolPuts, c.PoolOutstanding))
	}
	if c.Delivered == 0 || o.FlowsCompleted == 0 {
		bad = append(bad, "degenerate: no deliveries")
	}
	if w.Arch == "daware" && o.Reprograms == 0 {
		bad = append(bad, "degenerate: no reprograms on a demand-aware run")
	}
	if w.Arch == "clos" && c.OpticalForwarded != 0 {
		bad = append(bad, fmt.Sprintf("degenerate: %d packets forwarded optically on the electrical baseline", c.OpticalForwarded))
	}
	if seed == defaultSeed {
		r, ok := ref[w.Name]
		if !ok {
			bad = append(bad, "no reference outcome recorded for "+w.Name)
		} else {
			bad = append(bad, outsideBand(o, r)...)
		}
	}
	return bad
}

// tally counts attempted and failed runs and keeps the first reasons.
type tally struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Reasons   []string `json:"reasons,omitempty"`
}

// add records one attempted run; a non-empty reason list fails it.
func (t *tally) add(what string, reasons []string) bool {
	t.Attempted++
	if len(reasons) == 0 {
		return true
	}
	t.Failed++
	for _, r := range reasons {
		if len(t.Reasons) < 16 {
			t.Reasons = append(t.Reasons, what+": "+r)
		}
	}
	return false
}

// sameRun compares a run with the first run of the same seed.
func sameRun(got, first fingerprint) []string {
	if got == first {
		return nil
	}
	if got.Outcome != first.Outcome {
		return []string{fmt.Sprintf("simulated outcome differs from the first run of this seed: %+v != %+v",
			got.Outcome, first.Outcome)}
	}
	return []string{fmt.Sprintf("layer counters differ from the first run of this seed: %+v != %+v",
		got.Counts, first.Counts)}
}
