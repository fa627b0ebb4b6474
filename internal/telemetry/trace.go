package telemetry

import (
	"encoding/json"
	"io"

	"openoptics/internal/core"
	"openoptics/internal/provenance"
)

// Tracer implements sampled in-band packet tracing (INT-style): a data
// packet whose flow is sampled carries a core.PktTrace that every
// forwarding device appends a hop record to; at delivery or drop the
// record is flushed as one JSON line to the sink.
//
// Sampling is deterministic per flow — a hash-threshold test on the five
// tuple — so all packets of a sampled flow are traced and runs are
// reproducible regardless of sampling rate. Both directions of a TCP
// connection hash differently; sample rate 1 traces everything.
type Tracer struct {
	threshold uint64
	sink      io.Writer
	enc       *json.Encoder

	// OnFinish, when set, receives every finished trace after it is
	// written to the sink — the programmatic consumption path.
	OnFinish func(*core.PktTrace)

	// Started counts traces attached; Finished counts traces flushed
	// (delivered + dropped); SinkErrs counts JSONL write failures.
	Started  uint64
	Finished uint64
	SinkErrs uint64

	// Per-disposition breakdown of Finished, running latency-attribution
	// totals over delivered traces, and the count of delivered traces whose
	// hop stamps failed the decomposition identity (should stay 0; a
	// nonzero value means a forwarding path forgot a stamp).
	delivered          uint64
	dropped            uint64
	identityViolations uint64
	comp               core.Decomposition
	deliveredLatencyNs int64

	// flows tracks the virtual-time span of every sampled flow seen, for
	// FCT histograms (FinalizeFlows) and the Stats flow count.
	flows map[string]*flowSpan

	hist TraceHistograms
}

// TraceComponents names the four latency-attribution components in the
// order of TraceHistograms.Components.
var TraceComponents = [4]string{"slice_wait", "queueing", "serialization", "propagation"}

// TraceHistograms are a tracer's distributions over its finished traces,
// filled from the first trace whether or not a registry exports them.
type TraceHistograms struct {
	// Latency and Hops are the end-to-end virtual latency and the
	// forwarding decisions of each delivered sampled packet.
	Latency, Hops *Histogram
	// Components is each delivered packet's latency attribution, one
	// histogram per TraceComponents entry.
	Components [4]*Histogram
	// FCT is each sampled flow's completion time, first transmission to
	// last delivery, observed by FinalizeFlows.
	FCT *Histogram
}

// Histogram bounds shared by the end-to-end latency, the per-component
// attribution, and the per-flow FCT histograms, so the distributions are
// directly comparable on /metrics.
var traceLatencyBounds = []float64{1e3, 1e4, 1e5, 3e5, 1e6, 3e6, 1e7}

// Histograms returns the tracer's distributions.
func (t *Tracer) Histograms() *TraceHistograms { return &t.hist }

// flowSpan is one sampled flow's delivered-packet span: first transmission
// start to last delivery.
type flowSpan struct {
	startNs int64
	endNs   int64
}

// TraceStats is a point-in-time summary of a Tracer's activity, exposed in
// Net.Snapshot().
type TraceStats struct {
	Started   uint64 `json:"started"`
	Finished  uint64 `json:"finished"`
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
	SinkErrs  uint64 `json:"sink_errors"`
	// Flows is the number of distinct sampled flows with at least one
	// delivered packet.
	Flows int `json:"flows"`
	// IdentityViolations counts delivered traces whose per-hop stamps did
	// not decompose (a stamp was missing or out of order). Always 0 unless
	// a forwarding path has a telemetry bug.
	IdentityViolations uint64 `json:"identity_violations"`
	// Comp is the summed latency attribution over all delivered traces;
	// Comp.TotalNs() == DeliveredLatencyNs when IdentityViolations == 0.
	Comp               core.Decomposition `json:"component_totals"`
	DeliveredLatencyNs int64              `json:"delivered_latency_ns_total"`
}

// Stats returns the tracer's current counters and attribution totals.
func (t *Tracer) Stats() TraceStats {
	return TraceStats{
		Started:            t.Started,
		Finished:           t.Finished,
		Delivered:          t.delivered,
		Dropped:            t.dropped,
		SinkErrs:           t.SinkErrs,
		Flows:              len(t.flows),
		IdentityViolations: t.identityViolations,
		Comp:               t.comp,
		DeliveredLatencyNs: t.deliveredLatencyNs,
	}
}

// NewTracer builds a tracer sampling the given fraction of flows
// (clamped to [0,1]). sink may be nil; set one later with SetSink.
func NewTracer(sampleRate float64, sink io.Writer) *Tracer {
	if sampleRate < 0 {
		sampleRate = 0
	}
	if sampleRate > 1 {
		sampleRate = 1
	}
	t := &Tracer{threshold: uint64(sampleRate * float64(^uint64(0)))}
	t.hist = TraceHistograms{
		Latency: NewHistogram(traceLatencyBounds),
		Hops:    NewHistogram([]float64{1, 2, 3, 4, 6, 8}),
		FCT:     NewHistogram(traceLatencyBounds),
	}
	for i := range t.hist.Components {
		t.hist.Components[i] = NewHistogram(traceLatencyBounds)
	}
	if sampleRate >= 1 {
		t.threshold = ^uint64(0)
	}
	t.SetSink(sink)
	return t
}

// SetSink directs finished traces to w as JSON lines (nil disables
// writing; OnFinish still fires).
func (t *Tracer) SetSink(w io.Writer) {
	t.sink = w
	if w != nil {
		t.enc = json.NewEncoder(w)
	} else {
		t.enc = nil
	}
}

// TraceHeader is the optional first line of a trace JSONL stream: the
// schema version and run manifest of the run that produced it. Readers
// distinguish it from trace records by its "kind" field; headerless
// streams (pre-provenance traces, programmatic sinks) remain valid.
type TraceHeader struct {
	Kind          string `json:"kind"` // always "header"
	SchemaVersion int    `json:"schema_version"`
	Manifest      any    `json:"manifest,omitempty"`
}

// WriteHeader stamps the sink with a header line carrying the run
// manifest. Call once, right after SetSink and before the run starts, so
// the header precedes every trace record. A nil sink is a no-op.
func (t *Tracer) WriteHeader(manifest any) {
	if t.enc == nil {
		return
	}
	if err := t.enc.Encode(TraceHeader{
		Kind: "header", SchemaVersion: provenance.SchemaVersion, Manifest: manifest,
	}); err != nil {
		t.SinkErrs++
	}
}

// FinalizeFlows observes every tracked flow's completion time (first
// transmission start to last delivery) into the FCT histogram, then
// forgets the flows. Call once at end of run, before exporting metrics;
// calling it mid-run splits flows that are still transmitting into two
// observations.
func (t *Tracer) FinalizeFlows() {
	for _, fs := range t.flows {
		t.hist.FCT.Observe(float64(fs.endNs - fs.startNs))
	}
	t.flows = nil
}

// Sampled reports whether the flow is in the sampled set.
func (t *Tracer) Sampled(flow core.FlowKey) bool {
	if t.threshold == ^uint64(0) {
		return true
	}
	// Re-mix the flow hash so the sampling decision is independent of the
	// multipath hashing that consumes the same five tuple.
	h := flow.Hash() * 0x9e3779b97f4a7c15
	return h < t.threshold
}

// Start attaches a trace to the packet if its flow is sampled and it is
// not already traced. Control-plane packets are never traced.
func (t *Tracer) Start(pkt *core.Packet, now int64) {
	if pkt.Trace != nil || pkt.IsCtrl() || !t.Sampled(pkt.Flow) {
		return
	}
	t.Started++
	pkt.Trace = &core.PktTrace{
		PktID:   pkt.ID,
		Flow:    pkt.Flow.String(),
		SrcNode: pkt.SrcNode,
		DstNode: pkt.DstNode,
		Size:    pkt.Size,
		StartNs: now,
	}
}

// Deliver finishes the packet's trace with the delivered disposition.
func (t *Tracer) Deliver(pkt *core.Packet, node core.NodeID, now int64) {
	t.finish(pkt, core.DispDelivered, core.DropNone, node, now)
}

// Drop finishes the packet's trace with a drop disposition and reason.
func (t *Tracer) Drop(pkt *core.Packet, reason core.DropReason, node core.NodeID, now int64) {
	t.finish(pkt, core.DispDropped, reason, node, now)
}

func (t *Tracer) finish(pkt *core.Packet, disp string, reason core.DropReason, node core.NodeID, now int64) {
	tr := pkt.Trace
	if tr == nil {
		return
	}
	pkt.Trace = nil // a re-injected packet (retransmit path) starts fresh
	tr.Disposition = disp
	tr.Reason = reason
	tr.EndNode = node
	tr.EndNs = now
	tr.EndSlice = pkt.ArrSlice()
	t.Finished++
	if disp == core.DispDelivered {
		t.delivered++
		t.deliveredLatencyNs += tr.EndNs - tr.StartNs
		if d, ok := tr.Decompose(); ok {
			t.comp.Add(d)
			for i, ns := range [4]int64{d.SliceWaitNs, d.QueueingNs, d.SerializationNs, d.PropagationNs} {
				t.hist.Components[i].Observe(float64(ns))
			}
		} else {
			t.identityViolations++
		}
		fs := t.flows[tr.Flow]
		if fs == nil {
			if t.flows == nil {
				t.flows = make(map[string]*flowSpan)
			}
			fs = &flowSpan{startNs: tr.StartNs}
			t.flows[tr.Flow] = fs
		}
		if tr.StartNs < fs.startNs {
			fs.startNs = tr.StartNs
		}
		if tr.EndNs > fs.endNs {
			fs.endNs = tr.EndNs
		}
		t.hist.Latency.Observe(float64(tr.EndNs - tr.StartNs))
		t.hist.Hops.Observe(float64(len(tr.Hops)))
	} else {
		t.dropped++
	}
	if t.enc != nil {
		if err := t.enc.Encode(tr); err != nil {
			t.SinkErrs++
		}
	}
	if t.OnFinish != nil {
		t.OnFinish(tr)
	}
}
