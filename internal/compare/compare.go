package compare

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"openoptics/internal/provenance"
	"openoptics/internal/runner"
)

// Run kinds.
const (
	KindSweep = "sweep" // a sweep aggregate (or the ledger it derives from)
	KindBench = "bench" // an oobench -json report
)

// Metric directions. Lower-better metrics can regress; neutral metrics
// (counts that merely describe the workload) are reported but never gate.
const (
	LowerBetter = "lower_better"
	Neutral     = "neutral"
)

// Run is one loaded side of a comparison.
type Run struct {
	Path         string               `json:"path"`
	Kind         string               `json:"kind"`
	Name         string               `json:"name,omitempty"`
	ConfigDigest string               `json:"config_digest,omitempty"`
	Manifest     *provenance.Manifest `json:"manifest,omitempty"`

	Scenarios []runner.ScenarioStats `json:"-"`
	Bench     *BenchReport           `json:"-"`
}

// LoadRun loads a run artifact, sniffing its format: a sweep summary.json
// (aggregate), a sweep ledger.jsonl (aggregated on the fly), an oobench
// -json report, or a directory containing one of those under a canonical
// name (summary.json, ledger.jsonl, bench.json — tried in that order).
func LoadRun(path string) (*Run, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if st.IsDir() {
		for _, name := range []string{"summary.json", "ledger.jsonl", "bench.json"} {
			p := filepath.Join(path, name)
			if _, err := os.Stat(p); err == nil {
				return LoadRun(p)
			}
		}
		return nil, fmt.Errorf("compare: %s: no summary.json, ledger.jsonl, or bench.json", path)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// A single JSON document is an aggregate or a bench report; anything
	// else is treated as a JSONL ledger.
	var probe struct {
		Scenarios []json.RawMessage `json:"scenarios"`
		Results   []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(raw, &probe); err == nil {
		switch {
		case probe.Scenarios != nil:
			var agg runner.Aggregate
			if err := json.Unmarshal(raw, &agg); err != nil {
				return nil, fmt.Errorf("compare: %s: %w", path, err)
			}
			return runFromAggregate(path, &agg), nil
		case probe.Results != nil:
			var br BenchReport
			if err := json.Unmarshal(raw, &br); err != nil {
				return nil, fmt.Errorf("compare: %s: %w", path, err)
			}
			r := &Run{Path: path, Kind: KindBench, Bench: &br}
			if m, ok := manifestOf(br.Manifest); ok {
				r.Manifest = m
				r.ConfigDigest = m.ConfigDigest
			}
			return r, nil
		}
		return nil, fmt.Errorf("compare: %s: JSON has neither \"scenarios\" nor \"results\"", path)
	}
	recs, hdr, err := runner.ReadLedgerFull(path)
	if err != nil {
		return nil, fmt.Errorf("compare: %s: %w", path, err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("compare: %s: empty ledger", path)
	}
	agg := runner.NewAggregate("", recs)
	agg.Stamp(hdr)
	return runFromAggregate(path, agg), nil
}

func runFromAggregate(path string, agg *runner.Aggregate) *Run {
	return &Run{
		Path: path, Kind: KindSweep, Name: agg.Name,
		ConfigDigest: agg.ConfigDigest, Manifest: agg.Manifest,
		Scenarios: agg.Scenarios,
	}
}

// manifestOf recovers a typed manifest from the `any`-typed field a decoded
// artifact carries (a map after round-tripping through JSON).
func manifestOf(v any) (*provenance.Manifest, bool) {
	if v == nil {
		return nil, false
	}
	b, err := json.Marshal(v)
	if err != nil {
		return nil, false
	}
	var m provenance.Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, false
	}
	return &m, true
}

// Options tunes a comparison. The zero value takes the documented defaults.
type Options struct {
	// Alpha is the significance level (default 0.05).
	Alpha float64
	// MinEffect is the minimum relative mean shift (default 0.01 = 1%)
	// a significant difference must exceed to count as a regression or
	// improvement — statistical significance alone can flag differences
	// too small to matter.
	MinEffect float64
	// BootstrapIters sizes the confidence-interval resampling (default 2000).
	BootstrapIters int
	// Conf is the CI level (default 0.95).
	Conf float64
	// IgnoreDigest compares scenarios whose config digests disagree —
	// normally they are skipped with a warning, because a digest mismatch
	// means the two runs measured different configurations.
	IgnoreDigest bool
}

func (o Options) withDefaults() Options {
	if o.Alpha <= 0 {
		o.Alpha = 0.05
	}
	if o.MinEffect <= 0 {
		o.MinEffect = 0.01
	}
	if o.BootstrapIters <= 0 {
		o.BootstrapIters = 2000
	}
	if o.Conf <= 0 || o.Conf >= 1 {
		o.Conf = 0.95
	}
	return o
}

// Report is the outcome of one comparison. Its JSON rendering is
// deterministic for fixed inputs and options.
type Report struct {
	SchemaVersion int     `json:"schema_version"`
	Kind          string  `json:"kind"`
	Alpha         float64 `json:"alpha"`
	MinEffect     float64 `json:"min_effect"`
	Conf          float64 `json:"conf"`

	Before Run `json:"before"`
	After  Run `json:"after"`

	// Aligned counts scenarios compared; Warnings records alignment
	// trouble (unmatched scenarios, digest mismatches).
	Aligned  int      `json:"aligned"`
	Warnings []string `json:"warnings,omitempty"`

	Scenarios []ScenarioDelta `json:"scenarios"`

	Regressions  int `json:"regressions"`
	Improvements int `json:"improvements"`
}

// ScenarioDelta is one aligned scenario's (or bench experiment's) metric
// comparison.
type ScenarioDelta struct {
	Scenario     string        `json:"scenario"`
	ConfigDigest string        `json:"config_digest,omitempty"`
	DigestMatch  bool          `json:"digest_match"`
	Metrics      []MetricDelta `json:"metrics,omitempty"`
}

// MetricDelta is one metric's before/after test.
type MetricDelta struct {
	Metric    string `json:"metric"`
	Direction string `json:"direction"`
	// Method is "mann_whitney" when both sides have >= 2 replications,
	// "delta" otherwise (threshold-only, no significance test possible).
	Method string `json:"method"`

	N1         int     `json:"n1"`
	N2         int     `json:"n2"`
	MeanBefore float64 `json:"mean_before"`
	MeanAfter  float64 `json:"mean_after"`
	// DeltaPct is the relative mean shift in percent; CILoPct/CIHiPct
	// bound it at the configured confidence (mann_whitney method only).
	DeltaPct float64 `json:"delta_pct"`
	CILoPct  float64 `json:"ci_lo_pct,omitempty"`
	CIHiPct  float64 `json:"ci_hi_pct,omitempty"`
	P        float64 `json:"p"`

	Significant bool `json:"significant"`
	Regression  bool `json:"regression"`
	Improvement bool `json:"improvement"`
}

// sweepMetric defines one comparable sweep metric.
type sweepMetric struct {
	name string
	dir  string
	get  func(runner.RepMetrics) float64
}

var sweepMetrics = []sweepMetric{
	{"fct_mean_ns", LowerBetter, func(r runner.RepMetrics) float64 { return r.FCTMeanNs }},
	{"fct_p50_ns", LowerBetter, func(r runner.RepMetrics) float64 { return r.FCTP50Ns }},
	{"fct_p95_ns", LowerBetter, func(r runner.RepMetrics) float64 { return r.FCTP95Ns }},
	{"fct_p99_ns", LowerBetter, func(r runner.RepMetrics) float64 { return r.FCTP99Ns }},
	{"fct_max_ns", LowerBetter, func(r runner.RepMetrics) float64 { return r.FCTMaxNs }},
	{"buf_p999_bytes", LowerBetter, func(r runner.RepMetrics) float64 { return r.BufP999Bytes }},
	{"buf_max_bytes", LowerBetter, func(r runner.RepMetrics) float64 { return r.BufMaxBytes }},
	{"flows", Neutral, func(r runner.RepMetrics) float64 { return float64(r.Flows) }},
	{"events", Neutral, func(r runner.RepMetrics) float64 { return float64(r.Events) }},
	{"comp_slice_wait_ns", LowerBetter, func(r runner.RepMetrics) float64 { return float64(r.CompSliceWaitNs) }},
	{"comp_queueing_ns", LowerBetter, func(r runner.RepMetrics) float64 { return float64(r.CompQueueingNs) }},
	{"comp_serialization_ns", LowerBetter, func(r runner.RepMetrics) float64 { return float64(r.CompSerializationNs) }},
	{"comp_propagation_ns", LowerBetter, func(r runner.RepMetrics) float64 { return float64(r.CompPropagationNs) }},
}

// Compare runs the differential analysis between two loaded runs of the
// same kind.
func Compare(before, after *Run, opt Options) (*Report, error) {
	if before.Kind != after.Kind {
		return nil, fmt.Errorf("compare: kind mismatch: %s (%s) vs %s (%s)",
			before.Path, before.Kind, after.Path, after.Kind)
	}
	opt = opt.withDefaults()
	rep := &Report{
		SchemaVersion: provenance.SchemaVersion,
		Kind:          before.Kind,
		Alpha:         opt.Alpha, MinEffect: opt.MinEffect, Conf: opt.Conf,
		Before: *before, After: *after,
	}
	if before.Kind == KindBench {
		compareBench(rep, before.Bench, after.Bench, opt)
	} else {
		compareSweeps(rep, before, after, opt)
	}
	for _, sd := range rep.Scenarios {
		for _, md := range sd.Metrics {
			if md.Regression {
				rep.Regressions++
			}
			if md.Improvement {
				rep.Improvements++
			}
		}
	}
	return rep, nil
}

func compareSweeps(rep *Report, before, after *Run, opt Options) {
	byName := make(map[string]*runner.ScenarioStats, len(after.Scenarios))
	for i := range after.Scenarios {
		byName[after.Scenarios[i].Scenario] = &after.Scenarios[i]
	}
	matched := make(map[string]bool)
	for i := range before.Scenarios {
		b := &before.Scenarios[i]
		a := byName[b.Scenario]
		if a == nil {
			rep.Warnings = append(rep.Warnings,
				fmt.Sprintf("scenario %s only in before run", b.Scenario))
			continue
		}
		matched[b.Scenario] = true
		sd := ScenarioDelta{
			Scenario:     b.Scenario,
			ConfigDigest: b.ConfigDigest,
			DigestMatch:  b.ConfigDigest == a.ConfigDigest,
		}
		if !sd.DigestMatch && b.ConfigDigest != "" && a.ConfigDigest != "" && !opt.IgnoreDigest {
			rep.Warnings = append(rep.Warnings, fmt.Sprintf(
				"scenario %s: config digest mismatch (%s vs %s) — skipped; the runs measured different configurations (use -ignore-digest to force)",
				b.Scenario, short(b.ConfigDigest), short(a.ConfigDigest)))
			rep.Scenarios = append(rep.Scenarios, sd)
			continue
		}
		rep.Aligned++
		for _, m := range sweepMetrics {
			xs := extract(b.Reps, m.get)
			ys := extract(a.Reps, m.get)
			if allZero(xs) && allZero(ys) {
				continue // metric not measured by this profile
			}
			sd.Metrics = append(sd.Metrics, testMetric(m.name, m.dir, xs, ys, opt))
		}
		rep.Scenarios = append(rep.Scenarios, sd)
	}
	for i := range after.Scenarios {
		if !matched[after.Scenarios[i].Scenario] {
			rep.Warnings = append(rep.Warnings,
				fmt.Sprintf("scenario %s only in after run", after.Scenarios[i].Scenario))
		}
	}
}

func compareBench(rep *Report, before, after *BenchReport, opt Options) {
	byName := make(map[string]*BenchResult, len(after.Results))
	for i := range after.Results {
		byName[after.Results[i].Name] = &after.Results[i]
	}
	matched := make(map[string]bool)
	for i := range before.Results {
		b := &before.Results[i]
		a := byName[b.Name]
		if a == nil {
			rep.Warnings = append(rep.Warnings,
				fmt.Sprintf("experiment %s only in before run", b.Name))
			continue
		}
		matched[b.Name] = true
		rep.Aligned++
		sd := ScenarioDelta{Scenario: b.Name, DigestMatch: true}
		for _, m := range []struct {
			name string
			dir  string
			x, y []float64
		}{
			{"wall_ns", LowerBetter, b.WallNs, a.WallNs},
			{"alloc_bytes", LowerBetter, b.AllocBytes, a.AllocBytes},
			{"allocs", LowerBetter, b.Allocs, a.Allocs},
			// Engine totals describe the workload, not its cost — they are
			// reported (so events/packet shifts are visible) but never gate.
			{"events", Neutral, b.Events, a.Events},
			{"events_per_packet", Neutral, b.EventsPerPacket, a.EventsPerPacket},
		} {
			// Skip a metric absent on *either* side: older reports predate
			// the engine-total fields, and a one-sided "+Inf%" row reads as
			// a shift when it is really a schema difference.
			if allZero(m.x) || allZero(m.y) {
				continue
			}
			sd.Metrics = append(sd.Metrics, testMetric(m.name, m.dir, m.x, m.y, opt))
		}
		rep.Scenarios = append(rep.Scenarios, sd)
	}
	for i := range after.Results {
		if !matched[after.Results[i].Name] {
			rep.Warnings = append(rep.Warnings,
				fmt.Sprintf("experiment %s only in after run", after.Results[i].Name))
		}
	}
}

// testMetric runs the per-metric statistics. With >= 2 replications on both
// sides it uses Mann-Whitney + bootstrap CI; otherwise it degrades to a
// threshold-only delta (method "delta"), where any shift past MinEffect is
// flagged without a significance claim.
func testMetric(name, dir string, xs, ys []float64, opt Options) MetricDelta {
	md := MetricDelta{
		Metric: name, Direction: dir,
		N1: len(xs), N2: len(ys),
		MeanBefore: mean(xs), MeanAfter: mean(ys),
	}
	if md.MeanBefore != 0 {
		md.DeltaPct = round6((md.MeanAfter - md.MeanBefore) / math.Abs(md.MeanBefore) * 100)
	} else if md.MeanAfter != 0 {
		md.DeltaPct = math.Inf(sign(md.MeanAfter))
	}
	exceeds := math.Abs(md.DeltaPct) >= opt.MinEffect*100
	if len(xs) >= 2 && len(ys) >= 2 {
		md.Method = "mann_whitney"
		_, md.P = MannWhitney(xs, ys)
		md.P = round6(md.P)
		lo, hi := BootstrapMeanDiffCI(xs, ys, opt.BootstrapIters, opt.Conf)
		if md.MeanBefore != 0 {
			md.CILoPct = round6(lo / math.Abs(md.MeanBefore) * 100)
			md.CIHiPct = round6(hi / math.Abs(md.MeanBefore) * 100)
		}
		md.Significant = md.P < opt.Alpha
	} else {
		md.Method = "delta"
		md.P = 1
		md.Significant = exceeds // best available evidence at n=1
	}
	if md.Significant && exceeds && dir == LowerBetter {
		if md.DeltaPct > 0 {
			md.Regression = true
		} else {
			md.Improvement = true
		}
	}
	return md
}

func extract(reps []runner.RepMetrics, get func(runner.RepMetrics) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = get(r)
	}
	return out
}

func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

func sign(v float64) int {
	if v < 0 {
		return -1
	}
	return 1
}

// round6 keeps report floats stable across platforms and readable in JSON.
func round6(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return v
	}
	return math.Round(v*1e6) / 1e6
}

func short(digest string) string {
	if i := strings.IndexByte(digest, ':'); i >= 0 && len(digest) > i+13 {
		return digest[:i+13] + "…"
	}
	return digest
}

// WriteJSON renders the machine-readable report (deterministic bytes).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTable renders the human-readable report.
func (r *Report) WriteTable(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "compare (%s): %s vs %s\n", r.Kind, r.Before.Path, r.After.Path)
	switch {
	case r.Before.ConfigDigest == "" || r.After.ConfigDigest == "":
		fmt.Fprintf(&b, "config digest: unavailable (pre-provenance artifact)\n")
	case r.Before.ConfigDigest == r.After.ConfigDigest:
		fmt.Fprintf(&b, "config digest: match (%s)\n", short(r.Before.ConfigDigest))
	default:
		fmt.Fprintf(&b, "config digest: MISMATCH (%s vs %s)\n",
			short(r.Before.ConfigDigest), short(r.After.ConfigDigest))
	}
	for _, warn := range r.Warnings {
		fmt.Fprintf(&b, "warning: %s\n", warn)
	}
	for _, sd := range r.Scenarios {
		if len(sd.Metrics) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n%s\n", sd.Scenario)
		fmt.Fprintf(&b, "  %-22s %14s %14s %9s %20s %9s  %s\n",
			"metric", "before", "after", "delta", ciHeader(r.Conf), "p", "verdict")
		for _, md := range sd.Metrics {
			ci := ""
			if md.Method == "mann_whitney" {
				ci = fmt.Sprintf("[%+.2f%%, %+.2f%%]", md.CILoPct, md.CIHiPct)
			}
			fmt.Fprintf(&b, "  %-22s %14s %14s %8.2f%% %20s %9s  %s\n",
				md.Metric, g6(md.MeanBefore), g6(md.MeanAfter), md.DeltaPct,
				ci, pString(md), verdict(md))
		}
	}
	fmt.Fprintf(&b, "\naligned=%d regressions=%d improvements=%d\n",
		r.Aligned, r.Regressions, r.Improvements)
	_, err := io.WriteString(w, b.String())
	return err
}

func ciHeader(conf float64) string { return fmt.Sprintf("%g%% CI", conf*100) }

func pString(md MetricDelta) string {
	if md.Method != "mann_whitney" {
		return "n/a"
	}
	return strconv.FormatFloat(md.P, 'g', 3, 64)
}

func verdict(md MetricDelta) string {
	switch {
	case md.Regression:
		return "REGRESSION"
	case md.Improvement:
		return "improvement"
	case md.Significant:
		return "shifted" // significant but under the effect threshold or neutral
	default:
		return "~"
	}
}

func g6(v float64) string {
	return strconv.FormatFloat(v, 'g', 6, 64)
}
