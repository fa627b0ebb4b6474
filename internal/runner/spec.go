// Package runner is the scenario-sweep orchestration subsystem: it expands
// a declarative sweep specification (architecture × routing × nodes × trace
// × load × seed-replication grid) into independent jobs, executes them on a
// bounded worker pool with per-job panic isolation, bounded retry, and a
// wall-clock timeout, streams results to a JSONL ledger that doubles as a
// resume checkpoint, and aggregates the ledger into deterministic CSV/JSON
// summaries. Every job is an isolated sim.Engine run, so the sweep is
// embarrassingly parallel; per-job seeds derive from the sweep seed via
// sim.Rand.Fork, making aggregate output byte-identical regardless of
// worker count or completion order.
package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"openoptics/internal/arch"
	"openoptics/internal/demand"
	"openoptics/internal/provenance"
	"openoptics/internal/traffic"
)

// Profiles select what a job measures.
const (
	// ProfileFCT replays the trace as closed-loop TCP flows and records
	// flow-completion-time percentiles (the Fig. 8/10 methodology).
	ProfileFCT = "fct"
	// ProfileBuffer replays the trace open-loop (paced UDP, no congestion
	// control) and records switch buffer occupancy — the §7 / Table 3
	// methodology, including its congestion-service tuning for HOHO/UCMP.
	ProfileBuffer = "buffer"
)

// Spec is a declarative sweep: the cross product of its axes expands into
// one job per (architecture, routing, nodes, trace, load, replication)
// tuple. Zero-valued axes take the documented defaults, so a minimal spec
// is just {"architectures": ["rotornet"]}.
type Spec struct {
	// Name labels the sweep in summaries.
	Name string `json:"name"`

	// Architectures to instantiate, by any name arch.Build accepts: clos,
	// cthrough, jupiter, mordia, rotornet, opera, semioblivious, shale,
	// daware, or oosim's spellings (c-through, rotornet-hoho, ...). The
	// spelling is part of the job ID, so a spec that names one job twice —
	// rotornet with routing vlb next to rotornet-vlb — is rejected.
	Architectures []string `json:"architectures"`
	// Routings apply to the rotornet architecture only (vlb, vlb+offload,
	// direct, ucmp, hoho); other architectures use their native routing
	// and collapse this axis. Default ["vlb"].
	Routings []string `json:"routings,omitempty"`
	// Nodes lists endpoint (ToR) counts. Default [8].
	Nodes []int `json:"nodes,omitempty"`
	// Traces lists workload size CDFs (kv, rpc, hadoop). Default ["rpc"].
	Traces []string `json:"traces,omitempty"`
	// Loads lists offered loads as fractions of aggregate host rate in
	// (0, 1]. Default [0.3].
	Loads []float64 `json:"loads,omitempty"`

	// Policies applies to the daware architecture only: schedule-synthesis
	// policies (oblivious, aware, reqgrant); other architectures collapse
	// the axis. Default ["aware"].
	Policies []string `json:"policies,omitempty"`
	// Predictors applies to the daware architecture only: TM predictors
	// (last, ewma, mean). Default ["last"].
	Predictors []string `json:"predictors,omitempty"`
	// CollectIntervalsUs applies to the daware architecture only: TM
	// collection periods in µs. Default [1000].
	CollectIntervalsUs []int64 `json:"collect_intervals_us,omitempty"`
	// ReconfigPeriodsUs applies to the daware architecture only:
	// scheduling-epoch lengths in µs (0 = 2× the collect interval).
	// Default [0].
	ReconfigPeriodsUs []int64 `json:"reconfig_periods_us,omitempty"`
	// ReconfigDrainUs is the daware hot-swap drain window in µs: changed
	// circuits' fabric ports drop packets for this long after a swap.
	ReconfigDrainUs int64 `json:"reconfig_drain_us,omitempty"`

	// HotFrac routes this fraction of workload flows to one hotspot node,
	// skewing the TM (0 = uniform).
	HotFrac float64 `json:"hot_frac,omitempty"`
	// HotPairs, when > 0, redirects the HotFrac flows between disjoint
	// node pairs (0,1), (2,3), … instead of in-casting on one node.
	HotPairs int `json:"hot_pairs,omitempty"`
	// LoadShape modulates arrival rate over time: "", flat, diurnal,
	// bursty.
	LoadShape string `json:"load_shape,omitempty"`
	// ShapePeriodMs is the load-shape period in ms (0 = 10 ms).
	ShapePeriodMs int `json:"shape_period_ms,omitempty"`
	// ShapeAmplitude is the load-shape swing in [0, 1) (0 = 0.8).
	ShapeAmplitude float64 `json:"shape_amplitude,omitempty"`

	// DurationMs is the measured window of virtual time. Default 20.
	DurationMs int `json:"duration_ms,omitempty"`
	// SliceDurationNs is the optical time-slice duration (0 = the
	// architecture default of 100 µs).
	SliceDurationNs int64 `json:"slice_duration_ns,omitempty"`
	// Uplink is the optical uplinks per node (0 = architecture default).
	Uplink int `json:"uplink,omitempty"`
	// MaxHop bounds path search (0 = architecture default).
	MaxHop int `json:"max_hop,omitempty"`
	// Profile selects the measurement methodology: "fct" (default) or
	// "buffer".
	Profile string `json:"profile,omitempty"`
	// TraceSample, when > 0, attaches a sink-less in-band tracer to every
	// job sampling this fraction of flows, so results carry the PR 5
	// per-component latency attribution (slice-wait/queueing/
	// serialization/propagation totals) for cross-run comparison.
	TraceSample float64 `json:"trace_sample,omitempty"`
	// EventDigest attaches the determinism auditor to every job, so results
	// carry the run's event-stream digest chain and invariant-violation
	// count. The auditor schedules no events, so the jobs simulate exactly
	// what they would without it; omitempty keeps pre-existing specs'
	// digests unchanged.
	EventDigest bool `json:"event_digest,omitempty"`

	// Seed is the sweep master seed; per-job seeds fork from it. The zero
	// value means 42 — set SeedSet to request a literal zero seed.
	Seed uint64 `json:"seed,omitempty"`
	// SeedSet marks Seed as explicitly chosen, making seed 0 expressible.
	SeedSet bool `json:"seed_set,omitempty"`
	// Replications runs each scenario this many times with decorrelated
	// seeds (replication index r contributes to the fork label). Default 1.
	Replications int `json:"replications,omitempty"`

	// TimeoutMs bounds one job's wall-clock time (0 = none). A
	// watchdog interrupts the job's engine, which stops within about a
	// thousand events.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

var knownRoutings = map[string]bool{
	"vlb": true, "vlb+offload": true, "direct": true, "ucmp": true, "hoho": true,
}

// known renders a known-value map as a sorted list for error messages.
func known(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// axisErr is the uniform rejection for unknown axis values: it names the
// spec key and the offending value, so a typo in a sweep file is
// diagnosable from the error alone.
func axisErr(key, value string, knownVals []string) error {
	return fmt.Errorf("runner: spec axis %q: unknown value %q (known: %v)", key, value, knownVals)
}

// LoadSpec reads and validates a sweep spec from a JSON file.
func LoadSpec(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadSpec(f)
}

// ReadSpec decodes and validates a sweep spec from JSON.
func ReadSpec(r io.Reader) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("runner: bad sweep spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// withDefaults returns a copy with every zero axis filled in.
func (s Spec) withDefaults() Spec {
	if len(s.Routings) == 0 {
		s.Routings = []string{"vlb"}
	}
	if len(s.Nodes) == 0 {
		s.Nodes = []int{8}
	}
	if len(s.Traces) == 0 {
		s.Traces = []string{"rpc"}
	}
	if len(s.Loads) == 0 {
		s.Loads = []float64{0.3}
	}
	if s.DurationMs <= 0 {
		s.DurationMs = 20
	}
	if s.Profile == "" {
		s.Profile = ProfileFCT
	}
	if s.Seed == 0 && !s.SeedSet {
		s.Seed = 42
	}
	if s.Replications <= 0 {
		s.Replications = 1
	}
	// The daware axes default only when the daware architecture is in the
	// grid: filling them unconditionally would change the resolved form —
	// and so the config digest — of every pre-existing spec.
	if s.hasArch("daware") {
		if len(s.Policies) == 0 {
			s.Policies = []string{"aware"}
		}
		if len(s.Predictors) == 0 {
			s.Predictors = []string{"last"}
		}
		if len(s.CollectIntervalsUs) == 0 {
			s.CollectIntervalsUs = []int64{1000}
		}
		if len(s.ReconfigPeriodsUs) == 0 {
			s.ReconfigPeriodsUs = []int64{0}
		}
	}
	return s
}

func (s Spec) hasArch(name string) bool {
	for _, a := range s.Architectures {
		if a == name {
			return true
		}
	}
	return false
}

// Validate rejects specs that would expand into unrunnable or colliding
// jobs. Unknown axis values fail with an error naming the spec key and the
// offending value.
func (s *Spec) Validate() error {
	if len(s.Architectures) == 0 {
		return fmt.Errorf("runner: spec has no architectures")
	}
	for _, a := range s.Architectures {
		if !arch.Known(a) {
			return axisErr("architectures", a, arch.Names())
		}
	}
	for _, r := range s.Routings {
		if !knownRoutings[r] {
			return axisErr("routings", r, known(knownRoutings))
		}
	}
	for _, tr := range s.Traces {
		if _, err := traffic.ByName(tr); err != nil {
			return axisErr("traces", tr, traffic.KnownTraces())
		}
	}
	for _, n := range s.Nodes {
		if n < 2 {
			return fmt.Errorf("runner: spec axis %q: node count %d < 2", "nodes", n)
		}
	}
	for _, l := range s.Loads {
		if l <= 0 || l > 1 {
			return fmt.Errorf("runner: spec axis %q: load %g out of (0,1]", "loads", l)
		}
	}
	for _, p := range s.Policies {
		if !demand.KnownPolicy(p) {
			return axisErr("policies", p, demand.KnownPolicies())
		}
	}
	for _, p := range s.Predictors {
		if !demand.KnownPredictor(p) {
			return axisErr("predictors", p, demand.KnownPredictors())
		}
	}
	for _, ci := range s.CollectIntervalsUs {
		if ci <= 0 {
			return fmt.Errorf("runner: spec axis %q: interval %d must be positive", "collect_intervals_us", ci)
		}
	}
	for _, rp := range s.ReconfigPeriodsUs {
		if rp < 0 {
			return fmt.Errorf("runner: spec axis %q: period %d must be >= 0", "reconfig_periods_us", rp)
		}
	}
	if s.Profile != "" && s.Profile != ProfileFCT && s.Profile != ProfileBuffer {
		return axisErr("profile", s.Profile, []string{ProfileBuffer, ProfileFCT})
	}
	if !traffic.KnownLoadShape(s.LoadShape) {
		return axisErr("load_shape", s.LoadShape, []string{"bursty", "diurnal", "flat"})
	}
	if s.ShapeAmplitude < 0 || s.ShapeAmplitude >= 1 {
		return fmt.Errorf("runner: spec key %q: amplitude %g out of [0,1)", "shape_amplitude", s.ShapeAmplitude)
	}
	if s.HotFrac < 0 || s.HotFrac >= 1 {
		return fmt.Errorf("runner: spec key %q: fraction %g out of [0,1)", "hot_frac", s.HotFrac)
	}
	if s.Replications < 0 || s.TimeoutMs < 0 || s.DurationMs < 0 ||
		s.ReconfigDrainUs < 0 || s.ShapePeriodMs < 0 || s.HotPairs < 0 {
		return fmt.Errorf("runner: negative replications/timeout/duration/drain/period/pairs")
	}
	if s.TraceSample < 0 || s.TraceSample > 1 {
		return fmt.Errorf("runner: trace_sample %g out of [0,1]", s.TraceSample)
	}
	// The ledger, resume and the aggregate all key on the job ID, so two
	// jobs sharing one would overwrite each other.
	seen := make(map[string]bool)
	for _, j := range s.Expand() {
		if seen[j.ID] {
			return fmt.Errorf("runner: spec expands to job %s twice (a repeated axis value, or rotornet with a routing next to its rotornet-<scheme> spelling)", j.ID)
		}
		seen[j.ID] = true
	}
	return nil
}

// ConfigDigest is the canonical-JSON SHA-256 of the fully resolved spec
// (defaults applied, the display name excluded), the identity compare
// tooling uses to decide whether two sweeps measured the same thing.
func (s *Spec) ConfigDigest() string {
	d := s.withDefaults()
	d.Name = "" // a relabeled sweep is still the same measurement
	return provenance.MustDigest(d)
}

// MasterSeed is the sweep master seed with the default applied — the seed
// the provenance manifest records.
func (s *Spec) MasterSeed() uint64 { return s.withDefaults().Seed }

// Expand materializes the grid into jobs in deterministic order:
// architecture, routing, nodes, trace, load, replication — nested in that
// order. Job IDs are stable across expansions of the same spec, and per-job
// seeds depend only on the sweep seed and the job ID.
func (s *Spec) Expand() []Job {
	d := s.withDefaults()
	var jobs []Job
	for _, a := range d.Architectures {
		routings := d.Routings
		if a != "rotornet" {
			// Only rotornet takes a routing scheme; other architectures
			// collapse the axis to their native routing.
			routings = []string{""}
		}
		// The control-plane axes apply to daware only; other architectures
		// collapse them so their job identities stay unchanged.
		policies, predictors := []string{""}, []string{""}
		collects, reconfigs := []int64{0}, []int64{0}
		if a == "daware" {
			policies, predictors = d.Policies, d.Predictors
			collects, reconfigs = d.CollectIntervalsUs, d.ReconfigPeriodsUs
		}
		for _, rt := range routings {
			for _, po := range policies {
				for _, pr := range predictors {
					for _, ci := range collects {
						for _, rp := range reconfigs {
							for _, n := range d.Nodes {
								for _, tr := range d.Traces {
									for _, l := range d.Loads {
										for rep := 0; rep < d.Replications; rep++ {
											sc := Scenario{
												Arch: a, Routing: rt, Nodes: n, Trace: tr,
												Load: l, Rep: rep,
												DurationMs:        d.DurationMs,
												SliceDurationNs:   d.SliceDurationNs,
												Uplink:            d.Uplink,
												MaxHop:            d.MaxHop,
												Profile:           d.Profile,
												TraceSample:       d.TraceSample,
												EventDigest:       d.EventDigest,
												Policy:            po,
												Predictor:         pr,
												CollectIntervalUs: ci,
												ReconfigPeriodUs:  rp,
												HotFrac:           d.HotFrac,
												HotPairs:          d.HotPairs,
												LoadShape:         d.LoadShape,
												ShapePeriodMs:     d.ShapePeriodMs,
												ShapeAmplitude:    d.ShapeAmplitude,
											}
											if a == "daware" {
												sc.ReconfigDrainUs = d.ReconfigDrainUs
											}
											sc.ID = sc.id()
											sc.Seed = jobSeed(d.Seed, sc.ID)
											jobs = append(jobs, Job{ID: sc.ID, Seq: len(jobs), Scenario: sc})
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return jobs
}

// ScenarioKey strips the replication suffix from a job ID, naming the
// scenario a set of replicated jobs shares.
func ScenarioKey(jobID string) string {
	for i := len(jobID) - 1; i >= 0; i-- {
		if jobID[i] == '/' {
			return jobID[:i]
		}
	}
	return jobID
}

// SortRecords orders ledger records by job ID (the canonical aggregate
// order) and deduplicates by ID keeping the latest record, so a resumed
// sweep's re-runs supersede earlier failures.
func SortRecords(recs []Record) []Record {
	last := make(map[string]int, len(recs))
	for i, r := range recs {
		last[r.JobID] = i
	}
	out := make([]Record, 0, len(last))
	for i, r := range recs {
		if last[r.JobID] == i {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].JobID < out[j].JobID })
	return out
}
