package runner

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"openoptics"
	"openoptics/internal/arch"
	"openoptics/internal/diverge"
	"openoptics/internal/provenance"
	"openoptics/internal/routing"
	"openoptics/internal/sim"
	"openoptics/internal/stats"
	"openoptics/internal/telemetry"
	"openoptics/internal/traffic"
)

// Scenario is the one description of a replayed-trace run: everything
// needed to build its network, drive its workload, and measure. A sweep
// grid expands into Scenarios, oosim parses its flags into one, digest
// journals embed one, and Start wires every one of them the same way.
// The JSON tags are its identity (ConfigDigest, committed fixtures), so
// they never change.
type Scenario struct {
	ID      string  `json:"id"`
	Arch    string  `json:"arch"`
	Routing string  `json:"routing,omitempty"`
	Nodes   int     `json:"nodes"`
	Trace   string  `json:"trace"`
	Load    float64 `json:"load"`
	// Rep is the replication index; it feeds the seed fork label, so
	// replications of the same scenario are decorrelated.
	Rep int `json:"rep"`
	// Seed is the derived per-job seed (sweep seed forked by job ID).
	Seed uint64 `json:"seed"`

	DurationMs      int     `json:"duration_ms"`
	SliceDurationNs int64   `json:"slice_duration_ns,omitempty"`
	Uplink          int     `json:"uplink,omitempty"`
	MaxHop          int     `json:"max_hop,omitempty"`
	Profile         string  `json:"profile"`
	TraceSample     float64 `json:"trace_sample,omitempty"`
	EventDigest     bool    `json:"event_digest,omitempty"`

	// Demand-aware control-plane point (daware architecture only).
	Policy            string `json:"policy,omitempty"`
	Predictor         string `json:"predictor,omitempty"`
	CollectIntervalUs int64  `json:"collect_interval_us,omitempty"`
	ReconfigPeriodUs  int64  `json:"reconfig_period_us,omitempty"`
	ReconfigDrainUs   int64  `json:"reconfig_drain_us,omitempty"`

	// Workload shaping (all architectures).
	HotFrac        float64 `json:"hot_frac,omitempty"`
	HotPairs       int     `json:"hot_pairs,omitempty"`
	LoadShape      string  `json:"load_shape,omitempty"`
	ShapePeriodMs  int     `json:"shape_period_ms,omitempty"`
	ShapeAmplitude float64 `json:"shape_amplitude,omitempty"`
}

// ConfigDigest is the canonical-JSON SHA-256 of the scenario with its
// replication axis stripped (ID, Rep, Seed zeroed): the identity of the
// grid point itself. Replications of one scenario share a digest, and two
// sweeps' scenarios align for comparison exactly when digests match.
func (sc Scenario) ConfigDigest() string {
	sc.ID, sc.Rep, sc.Seed = "", 0, 0
	return provenance.MustDigest(sc)
}

// id renders the canonical job ID. It is the scenario's identity: ledger
// checkpointing, seed derivation, and aggregate ordering all key on it.
func (sc Scenario) id() string {
	name := sc.Arch
	if sc.Routing != "" {
		name += "-" + sc.Routing
	}
	if sc.Arch == "daware" {
		// The control-plane point is part of the daware job identity; the
		// extended segments keep every other architecture's IDs unchanged.
		name += "-" + sc.Policy + "-" + sc.Predictor
		return fmt.Sprintf("%s/n%d/%s/l%.2f/ci%d/rp%d/r%d",
			name, sc.Nodes, sc.Trace, sc.Load, sc.CollectIntervalUs, sc.ReconfigPeriodUs, sc.Rep)
	}
	return fmt.Sprintf("%s/n%d/%s/l%.2f/r%d", name, sc.Nodes, sc.Trace, sc.Load, sc.Rep)
}

// jobSeed forks the sweep seed by the job ID (FNV-1a hashed), giving every
// job an independent deterministic stream — the same derivation regardless
// of worker count, completion order, or which subset of the grid runs.
func jobSeed(sweepSeed uint64, jobID string) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(jobID); i++ {
		h ^= uint64(jobID[i])
		h *= fnvPrime
	}
	return sim.NewRand(sweepSeed).Fork(h).Uint64()
}

// Job is one unit of sweep work.
type Job struct {
	ID  string `json:"id"`
	Seq int    `json:"seq"`
	Scenario
}

// Result is the deterministic measurement a job produces. Every field is a
// pure function of the scenario (virtual-time simulation under a fixed
// seed), so two runs of the same job — on any worker, in any order — yield
// identical Results. Wall-clock quantities live on the ledger Record, not
// here.
type Result struct {
	// FlowsStarted counts workload arrivals over the measured window.
	FlowsStarted uint64 `json:"flows_started"`
	// Events is the engine's executed-event count (a determinism witness:
	// it diverges on any behavioral difference).
	Events uint64 `json:"events"`

	// FCT statistics in ns (fct profile; zero otherwise).
	FCTCount  int     `json:"fct_count"`
	FCTMeanNs float64 `json:"fct_mean_ns"`
	FCTP50Ns  float64 `json:"fct_p50_ns"`
	FCTP95Ns  float64 `json:"fct_p95_ns"`
	FCTP99Ns  float64 `json:"fct_p99_ns"`
	FCTMaxNs  float64 `json:"fct_max_ns"`

	// Buffer statistics of the observed (first) switch, Table-3 style.
	BufP999Bytes float64 `json:"buf_p999_bytes"`
	BufMaxBytes  float64 `json:"buf_max_bytes"`
	// Parked is the packet count offloaded to hosts across the network.
	Parked uint64 `json:"parked"`

	// Per-component latency attribution (PR 5 decomposition) summed over
	// sampled delivered packets; present when the spec sets trace_sample.
	TraceDelivered      uint64 `json:"trace_delivered,omitempty"`
	CompSliceWaitNs     int64  `json:"comp_slice_wait_ns,omitempty"`
	CompQueueingNs      int64  `json:"comp_queueing_ns,omitempty"`
	CompSerializationNs int64  `json:"comp_serialization_ns,omitempty"`
	CompPropagationNs   int64  `json:"comp_propagation_ns,omitempty"`

	// Demand-aware control-plane measurement (daware architecture only).
	Reconfigs     uint64 `json:"reconfigs,omitempty"`
	ReconfigDrops uint64 `json:"reconfig_drops,omitempty"`
	DemandEpochs  uint64 `json:"demand_epochs,omitempty"`
	// PredErrRatio is the predictor's cumulative L1 error over actual
	// bytes; Coverage the last epoch's matching-weight coverage.
	PredErrRatio float64 `json:"pred_err_ratio,omitempty"`
	Coverage     float64 `json:"coverage,omitempty"`

	// Determinism-auditor measurement, present when the spec sets
	// event_digest: the final digest chain over the job's whole dispatch
	// stream and the invariant violations.
	EventDigest         string `json:"event_digest,omitempty"`
	InvariantViolations uint64 `json:"invariant_violations,omitempty"`
}

// ErrTimeout marks a job attempt that exceeded its wall-clock budget. It
// is permanent: the pool does not retry it (the same simulation would
// exceed the same budget again).
var ErrTimeout = errors.New("runner: job wall-clock timeout exceeded")

// RunOpts tunes one job execution.
type RunOpts struct {
	// Timeout bounds the attempt's wall-clock time (<= 0: none).
	Timeout time.Duration
	// Metrics, when non-nil, receives the job network's telemetry
	// registry (PR 1) as JSON after the run.
	Metrics io.Writer
	// Manifest, when non-nil, is stamped into the job's metrics export
	// (the sweep-wide provenance manifest).
	Manifest any
}

// Wiring is what a caller adds when it starts a scenario: its own Config
// tuning, the auditor geometry and the perturbation.
type Wiring struct {
	// Tune adjusts the generated Config before the scenario's own tuning
	// applies (oosim's -config file).
	Tune func(*openoptics.Config)
	// Digest shapes the auditor attached when the scenario sets
	// EventDigest.
	Digest openoptics.DigestOptions
	// PerturbA and PerturbB, when set, arm Engine.PerturbSwapSeq (simdebug
	// builds) before the auditor attaches.
	PerturbA, PerturbB uint64
}

// Started is a wired scenario. The caller attaches its observers, starts
// the arrivals (StartTrace, or a workload of its own), then Runs.
type Started struct {
	*arch.Instance
	Sink    *traffic.Sink
	Auditor *openoptics.Auditor
	// Replay is the trace replay StartTrace started; nil before that.
	Replay *traffic.Replay

	scenario Scenario
	perturb  [2]uint64
}

// Start is the first half of the one wiring path of a scenario, shared by
// oosim, the journal replayer, the sweep runner and Table 3: build the
// architecture, attach the flow sink, arm the perturbation, attach the
// auditor. The caller then attaches its observers and starts the arrivals.
// A step that schedules engine events shifts the sequence numbers of every
// later one, so callers wiring one scenario in different orders could never
// replay each other's runs: observers that schedule events (the live plane,
// progress reports) attach between Start and StartTrace in every caller.
func (sc Scenario) Start(w Wiring) (*Started, error) {
	in, err := arch.Build(sc.archName(), sc.options(w.Tune), arch.DemandConfig{
		Policy:         sc.Policy,
		Predictor:      sc.Predictor,
		CollectEvery:   time.Duration(sc.CollectIntervalUs) * time.Microsecond,
		ReprogramEvery: time.Duration(sc.ReconfigPeriodUs) * time.Microsecond,
		DrainNs:        sc.ReconfigDrainUs * 1000,
	})
	if err != nil {
		return nil, err
	}
	st := &Started{Instance: in, Sink: traffic.NewSink(in.Net.Endpoints()),
		scenario: sc, perturb: [2]uint64{w.PerturbA, w.PerturbB}}
	// The swap relabels sequence numbers as they are assigned, and the
	// auditor's perturb hint names only seqs assigned after it attaches,
	// so arming first guarantees a hinted pair is actually swappable.
	if (w.PerturbA != 0 || w.PerturbB != 0) && !in.Net.Engine().PerturbSwapSeq(w.PerturbA, w.PerturbB) {
		return nil, fmt.Errorf("perturbation %d:%d needs a `-tags simdebug` build", w.PerturbA, w.PerturbB)
	}
	if sc.EventDigest {
		st.Auditor = in.Net.AttachDigest(w.Digest)
	}
	return st, nil
}

// StartTrace starts the scenario's trace replay over its duration, the
// arrivals seeded with trafficSeed.
func (st *Started) StartTrace(trafficSeed uint64) error {
	sc := st.scenario
	cdf, err := traffic.ByName(sc.Trace)
	if err != nil {
		return err
	}
	rp, err := traffic.NewReplay(st.Net.Engine(), st.Net.Endpoints(), cdf, sc.Load,
		int64(st.Net.Cfg.LineRateGbps*1e9), trafficSeed)
	if err != nil {
		return err
	}
	rp.OpenLoop = sc.Profile == ProfileBuffer
	rp.HotFrac = sc.HotFrac
	rp.HotPairs = sc.HotPairs
	if sc.LoadShape != "" && sc.LoadShape != "flat" {
		rp.Shape = &traffic.LoadShape{
			Kind:      sc.LoadShape,
			PeriodNs:  int64(sc.ShapePeriodMs) * 1e6,
			Amplitude: sc.ShapeAmplitude,
		}
		if err := rp.Shape.Validate(); err != nil {
			return err
		}
	}
	rp.Start(int64(sc.Duration()))
	st.Replay = rp
	return nil
}

// Journal assembles the run's digest journal with the scenario and the
// armed perturbation in its header, so `ooctl diverge` can re-run it. The
// scenario must have set EventDigest.
func (st *Started) Journal(m *provenance.Manifest) (*diverge.Journal, error) {
	raw, err := json.Marshal(st.scenario)
	if err != nil {
		return nil, err
	}
	j := st.Auditor.BuildJournal(m)
	j.Header.Scenario = raw
	j.Header.PerturbA, j.Header.PerturbB = st.perturb[0], st.perturb[1]
	return j, nil
}

// Duration is the scenario's arrival window.
func (sc Scenario) Duration() time.Duration {
	return time.Duration(sc.DurationMs) * time.Millisecond
}

// archName is the registry name of the scenario's architecture: the
// rotornet routing axis names the scheme, and "vlb+offload" is VLB with
// buffer offloading tuned on (see options).
func (sc Scenario) archName() string {
	if sc.Routing == "" {
		return sc.Arch
	}
	return sc.Arch + "-" + strings.TrimSuffix(sc.Routing, "+offload")
}

// options shapes the architecture instance, with the routing-specific
// Config tuning the paper experiments apply on top of the caller's own.
func (sc Scenario) options(tune func(*openoptics.Config)) arch.Options {
	name := sc.archName()
	return arch.Options{
		Nodes:           sc.Nodes,
		Uplink:          sc.Uplink,
		HostsPerNode:    1,
		SliceDurationNs: sc.SliceDurationNs,
		Seed:            sc.Seed,
		Routing:         routing.Options{MaxHop: sc.MaxHop},
		Tune: func(c *openoptics.Config) {
			if tune != nil {
				tune(c)
			}
			if sc.Routing == "vlb+offload" {
				c.OffloadRank = 2 // keep two slices of calendars on-switch
			}
			if sc.Profile == ProfileBuffer && (name == "rotornet-hoho" || name == "rotornet-ucmp") {
				// The §7 buffer-study tuning: latency-seeking schemes run
				// with congestion detection deferring instead of dropping.
				c.CongestionDetection = true
				c.Response = "defer"
			}
		},
	}
}

// Run executes the scenario to completion (or timeout) and measures it.
func (sc Scenario) Run(opt RunOpts) (*Result, error) {
	st, err := sc.Start(Wiring{})
	if err != nil {
		return nil, fmt.Errorf("runner: build %s: %w", sc.ID, err)
	}
	var tracer *telemetry.Tracer
	if sc.TraceSample > 0 {
		// Sink-less: the tracer only aggregates the per-component latency
		// attribution the Result reports.
		tracer = st.Net.Tracer(sc.TraceSample)
	}
	if err := st.StartTrace(sc.Seed ^ 0x7ab1e3); err != nil {
		return nil, fmt.Errorf("runner: build %s: %w", sc.ID, err)
	}
	eng := st.Net.Engine()
	if opt.Timeout > 0 {
		watchdog := time.AfterFunc(opt.Timeout, eng.Interrupt)
		defer watchdog.Stop()
	}
	// Drain window after the measured arrivals, as the paper drivers use.
	if err := st.Run(sc.Duration() + 10*time.Millisecond); err != nil {
		return nil, fmt.Errorf("runner: %s: %w", sc.ID, err)
	}
	if eng.Interrupted() {
		return nil, ErrTimeout
	}

	res := &Result{FlowsStarted: st.Replay.Started, Events: eng.Processed}
	if sc.Profile == ProfileFCT {
		s := st.Sink.FCTSample(traffic.PortReplay)
		res.FCTCount = s.N()
		res.FCTMeanNs = s.Mean()
		res.FCTP50Ns = s.Percentile(50)
		res.FCTP95Ns = s.Percentile(95)
		res.FCTP99Ns = s.Percentile(99)
		res.FCTMaxNs = s.Max()
	}
	if sws := st.Net.Switches(); len(sws) > 0 {
		res.BufP999Bytes = sws[0].BufferPercentile(0.999)
		res.BufMaxBytes = float64(sws[0].MaxBufferUsage())
	}
	for _, h := range st.Net.Hosts() {
		res.Parked += h.Counters.Parked
	}
	res.Reconfigs = st.Net.Reconfigs()
	res.ReconfigDrops = st.Net.OpticalFabric().DropsReconfig
	if st.Demand != nil {
		ds := st.Demand.Stats()
		res.DemandEpochs = ds.Epochs
		res.PredErrRatio = ds.PredErrRatio
		res.Coverage = ds.Coverage
	}
	if aud := st.Auditor; aud != nil {
		res.EventDigest = aud.ChainHex()
		res.InvariantViolations = aud.ViolationCount()
	}
	if tracer != nil {
		ts := tracer.Stats()
		res.TraceDelivered = ts.Delivered
		res.CompSliceWaitNs = ts.Comp.SliceWaitNs
		res.CompQueueingNs = ts.Comp.QueueingNs
		res.CompSerializationNs = ts.Comp.SerializationNs
		res.CompPropagationNs = ts.Comp.PropagationNs
	}
	if opt.Metrics != nil {
		reg := st.Net.Metrics()
		if opt.Manifest != nil {
			reg.SetManifest(opt.Manifest)
		}
		if err := reg.WriteJSON(opt.Metrics); err != nil {
			return nil, fmt.Errorf("runner: %s: metrics: %w", sc.ID, err)
		}
	}
	return res, nil
}

// crossRep summarizes one metric across a scenario's replications.
type crossRep struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

func summarize(vals []float64) crossRep {
	s := stats.NewSample()
	for _, v := range vals {
		s.Add(v)
	}
	return crossRep{Mean: s.Mean(), Min: s.Min(), Max: s.Max()}
}
