package openoptics

import (
	"strconv"

	"openoptics/internal/core"
	"openoptics/internal/sim"
	"openoptics/internal/switchsim"
	"openoptics/internal/telemetry"
)

// This file wires the telemetry subsystem into a Net: the network-wide
// metrics registry (Prometheus/JSON export) and the sampled in-band packet
// tracer. The registry only reads: every metric is a view of state the
// engine, a device or the tracer keeps anyway, evaluated at export time,
// so it can be built at any point of a run and report the same values.
// Untraced packets pay one nil check per decision point.

// Metrics returns the network-wide metrics registry, building it on the
// first call: engine event/profiling counters, every switch/host/transport
// counter block, per-slice drop attribution, buffer and link-utilization
// gauges, fabric drop counters, and the tracer's counters and histograms.
func (n *Net) Metrics() *telemetry.Registry {
	if n.reg != nil {
		return n.reg
	}
	reg := telemetry.NewRegistry()
	n.reg = reg

	n.registerEngine(reg)
	for i, sw := range n.switches {
		sw := sw
		node := telemetry.L("node", strconv.Itoa(i))
		telemetry.RegisterCounterStruct(reg, "oo_switch", "Switch counter", &sw.Counters, node)
		reg.GaugeFunc("oo_switch_buffer_bytes", "Bytes currently buffered on the switch.",
			func() float64 { return float64(sw.BufferUsage(core.NoPort)) }, node)
		nports := n.Cfg.Uplink
		if n.elec != nil {
			nports++ // the electrical uplink transmits too
		}
		for p := 0; p < nports; p++ {
			p := core.PortID(p)
			reg.CounterFunc("oo_switch_tx_bytes_total", "Bytes transmitted per switch port.",
				func() float64 { return float64(sw.BWUsage(p)) },
				node, telemetry.L("port", strconv.Itoa(int(p))))
		}
	}
	n.registerSliceCounters(reg)
	for i, h := range n.hosts {
		h := h
		st := n.stacks[i]
		host := telemetry.L("host", strconv.Itoa(int(h.Cfg.ID)))
		telemetry.RegisterCounterStruct(reg, "oo_host", "Host counter", &h.Counters, host)
		telemetry.RegisterCounterStruct(reg, "oo_transport", "Transport counter", &st.Counters, host)
		reg.CounterFunc("oo_transport_reorder_events_total", "Out-of-order data arrivals.",
			func() float64 { return float64(st.ReorderEvents) }, host)
	}
	n.registerFabrics(reg)
	n.registerTracer(reg)
	n.registerControl(reg)
	n.registerPool(reg)
	n.registerSched(reg)
	if n.tracer != nil {
		n.registerTraceHistograms(reg)
	}
	for _, fn := range n.onMetrics {
		fn(reg)
	}
	n.onMetrics = nil
	return reg
}

// OnMetrics runs fn against the network's metrics registry — immediately
// if the registry is already built, otherwise when Metrics() first builds
// it. Subsystems layered on a Net (the demand controller, custom drivers)
// contribute their metrics through it without forcing registry
// construction on runs that never export telemetry.
func (n *Net) OnMetrics(fn func(*telemetry.Registry)) {
	if n.reg != nil {
		fn(n.reg)
		return
	}
	n.onMetrics = append(n.onMetrics, fn)
}

// registerSliceCounters exposes the switches' per-slice drop and
// slice-miss arrays, one collector per family covering every switch. A
// switch exports nothing before Start sizes its arrays.
func (n *Net) registerSliceCounters(reg *telemetry.Registry) {
	reg.DynamicFamily("oo_switch_drops_total",
		"Packets dropped at switches, by reason and arrival slice.", telemetry.TypeCounter,
		func(emit func([]telemetry.Label, float64)) {
			for _, sw := range n.switches {
				node := telemetry.L("node", strconv.Itoa(int(sw.Cfg.ID)))
				for _, r := range switchsim.DropReasons {
					for sl, v := range sw.DropsBySlice(r) {
						emit([]telemetry.Label{node, telemetry.L("reason", string(r)),
							telemetry.L("slice", strconv.Itoa(sl))}, float64(v))
					}
				}
			}
		})
	reg.DynamicFamily("oo_switch_slice_misses_total",
		"Packets still queued when their departure slice ended.", telemetry.TypeCounter,
		func(emit func([]telemetry.Label, float64)) {
			for _, sw := range n.switches {
				node := telemetry.L("node", strconv.Itoa(int(sw.Cfg.ID)))
				for sl, v := range sw.MissesBySlice() {
					emit([]telemetry.Label{node, telemetry.L("slice", strconv.Itoa(sl))}, float64(v))
				}
			}
		})
}

// registerControl exposes the control plane's reprogramming activity: the
// hot-swap counter, current epoch, and the drain-window drop cost.
func (n *Net) registerControl(reg *telemetry.Registry) {
	reg.CounterFunc("oo_reconfig_total", "Mid-run schedule hot-swaps applied (Net.Reprogram).",
		func() float64 { return float64(n.reconfigs) })
	reg.GaugeFunc("oo_epoch", "Current scheduling epoch (hot-swap generation).",
		func() float64 { return float64(n.epoch) })
	reg.GaugeFunc("oo_last_reprogram_ns", "Virtual time of the most recent hot-swap.",
		func() float64 { return float64(n.lastReprogramNs) })
}

// registerTracer exposes trace loss on /metrics. The closures read through
// n.tracer so the counters survive Tracer() being called after Metrics()
// (or called again, replacing the tracer) and report 0 with tracing off.
func (n *Net) registerTracer(reg *telemetry.Registry) {
	for _, c := range []struct {
		name, help string
		read       func(*telemetry.Tracer) uint64
	}{
		{"oo_tracer_started_total", "In-band traces attached to sampled packets.",
			func(t *telemetry.Tracer) uint64 { return t.Started }},
		{"oo_tracer_finished_total", "In-band traces flushed (delivered + dropped).",
			func(t *telemetry.Tracer) uint64 { return t.Finished }},
		{"oo_tracer_sink_errors_total", "Trace JSONL write failures (lost trace records).",
			func(t *telemetry.Tracer) uint64 { return t.SinkErrs }},
	} {
		c := c
		reg.CounterFunc(c.name, c.help, func() float64 {
			if n.tracer == nil {
				return 0
			}
			return float64(c.read(n.tracer))
		})
	}
}

// registerTraceHistograms exposes the tracer's histograms: end-to-end
// latency, hop count and latency attribution of delivered sampled packets,
// and per-flow completion time (filled by FinalizeFlows). Like
// registerTracer's counters they read through n.tracer, so a replaced
// tracer is the one exported. Registered once, when both the registry and
// a tracer exist.
func (n *Net) registerTraceHistograms(reg *telemetry.Registry) {
	reg.HistogramFunc("oo_trace_latency_ns", "End-to-end virtual latency of delivered sampled packets.",
		func() *telemetry.Histogram { return n.tracer.Histograms().Latency })
	reg.HistogramFunc("oo_trace_hops", "Forwarding decisions per delivered sampled packet.",
		func() *telemetry.Histogram { return n.tracer.Histograms().Hops })
	for i, c := range telemetry.TraceComponents {
		reg.HistogramFunc("oo_trace_component_ns", "Per-packet latency attribution by component.",
			func() *telemetry.Histogram { return n.tracer.Histograms().Components[i] },
			telemetry.L("component", c))
	}
	reg.HistogramFunc("oo_trace_fct_ns",
		"Sampled-flow completion time: first transmission to last delivery (observed at FinalizeFlows).",
		func() *telemetry.Histogram { return n.tracer.Histograms().FCT })
}

func (n *Net) registerEngine(reg *telemetry.Registry) {
	reg.CounterFunc("oo_engine_events_total", "Executed simulation events.",
		func() float64 { return float64(n.eng.Processed) })
	reg.GaugeFunc("oo_engine_virtual_time_ns", "Engine virtual clock in ns.",
		func() float64 { return float64(n.eng.Now()) })
	reg.DynamicFamily("oo_engine_class_events_total",
		"Executed events by handler class.", telemetry.TypeCounter,
		func(emit func([]telemetry.Label, float64)) {
			for _, cs := range n.eng.ProfileStats() {
				emit([]telemetry.Label{telemetry.L("class", cs.Class.String())}, float64(cs.Count))
			}
		})
	reg.DynamicFamily("oo_engine_class_wall_ns_total",
		"Wall-clock ns spent per handler class (requires EnableProfiling).", telemetry.TypeCounter,
		func(emit func([]telemetry.Label, float64)) {
			for _, cs := range n.eng.ProfileStats() {
				emit([]telemetry.Label{telemetry.L("class", cs.Class.String())}, float64(cs.WallNs))
			}
		})
}

// registerPool exposes the packet slab pool: live occupancy, high-water
// mark, slab growth, and lifetime get/put volume (PR 8 left the pool
// invisible at runtime; a leak shows up here as outstanding drifting up).
func (n *Net) registerPool(reg *telemetry.Registry) {
	reg.CounterFunc("oo_pool_gets_total", "Packet allocations from the slab pool.",
		func() float64 { return float64(n.pool.Stats().Gets) })
	reg.CounterFunc("oo_pool_puts_total", "Packets returned to the slab pool.",
		func() float64 { return float64(n.pool.Stats().Puts) })
	reg.CounterFunc("oo_pool_grows_total", "Slab materializations.",
		func() float64 { return float64(n.pool.Stats().Grows) })
	reg.GaugeFunc("oo_pool_slabs", "Packet slabs materialized.",
		func() float64 { return float64(n.pool.Stats().Slabs) })
	reg.GaugeFunc("oo_pool_outstanding", "Live (allocated, unfreed) packets.",
		func() float64 { return float64(n.pool.Outstanding()) })
	reg.GaugeFunc("oo_pool_high_water", "Most packets live at once.",
		func() float64 { return float64(n.pool.Stats().HighWater) })
	reg.GaugeFunc("oo_pool_free_len", "Recycled slots awaiting reuse.",
		func() float64 { return float64(n.pool.Stats().FreeLen) })
}

// registerSched exposes the calendar queue's pressure counters: where
// pushes land (unopened bucket, open bucket, overflow heap), bucket sorts,
// and residency high-water marks.
func (n *Net) registerSched(reg *telemetry.Registry) {
	for _, c := range []struct {
		name, help string
		read       func(sim.SchedPressure) float64
	}{
		{"oo_sched_inline_pushes_total", "Events appended to a calendar bucket not yet opened.",
			func(p sim.SchedPressure) float64 { return float64(p.InlinePushes) }},
		{"oo_sched_spill_pushes_total", "Events pushed into the open calendar bucket.",
			func(p sim.SchedPressure) float64 { return float64(p.SpillPushes) }},
		{"oo_sched_overflow_pushes_total", "Events pushed into the overflow heap.",
			func(p sim.SchedPressure) float64 { return float64(p.OverflowPushes) }},
		{"oo_sched_resorts_total", "Calendar buckets sorted when the cursor opened them.",
			func(p sim.SchedPressure) float64 { return float64(p.Resorts) }},
	} {
		c := c
		reg.CounterFunc(c.name, c.help, func() float64 { return c.read(n.eng.SchedPressure()) })
	}
	reg.GaugeFunc("oo_sched_pending_events", "Events currently queued.",
		func() float64 { return float64(n.eng.Pending()) })
	reg.GaugeFunc("oo_sched_max_wheel_events", "High-water calendar-bucket residency.",
		func() float64 { return float64(n.eng.SchedPressure().MaxWheelEvents) })
	reg.GaugeFunc("oo_sched_max_overflow_events", "High-water overflow residency.",
		func() float64 { return float64(n.eng.SchedPressure().MaxOverflowEvents) })
	reg.GaugeFunc("oo_sched_slab_cap", "Event-slab capacity (slots).",
		func() float64 { return float64(n.eng.SchedPressure().SlabCap) })
	reg.GaugeFunc("oo_sched_free_slots", "Free event-slab slots.",
		func() float64 { return float64(n.eng.SchedPressure().FreeSlots) })
}

func (n *Net) registerFabrics(reg *telemetry.Registry) {
	opt := telemetry.L("fabric", "optical")
	reg.CounterFunc("oo_fabric_drops_total", "Packets dropped inside a fabric.",
		func() float64 { return float64(n.optical.DropsGuard) },
		opt, telemetry.L("reason", string(core.DropGuard)))
	reg.CounterFunc("oo_fabric_drops_total", "Packets dropped inside a fabric.",
		func() float64 { return float64(n.optical.DropsNoCircuit) },
		opt, telemetry.L("reason", string(core.DropNoCircuit)))
	reg.CounterFunc("oo_fabric_drops_total", "Packets dropped inside a fabric.",
		func() float64 { return float64(n.optical.DropsReconfig) },
		opt, telemetry.L("reason", string(core.DropReconfig)))
	reg.CounterFunc("oo_fabric_forwarded_total", "Packets forwarded by a fabric.",
		func() float64 { return float64(n.optical.Forwarded) }, opt)
	for i, l := range n.optical.Links() {
		l := l
		link := telemetry.L("link", strconv.Itoa(i))
		for _, d := range []struct {
			dir   string
			bytes *uint64
		}{{"to_fabric", &l.BytesAB}, {"from_fabric", &l.BytesBA}} {
			d := d
			reg.CounterFunc("oo_link_tx_bytes_total", "Bytes carried per optical-fabric link.",
				func() float64 { return float64(*d.bytes) }, link, telemetry.L("dir", d.dir))
			reg.GaugeFunc("oo_link_utilization", "Fraction of link capacity used since start.",
				func() float64 { return linkUtil(*d.bytes, l.BandwidthBps, n.eng.Now()) },
				link, telemetry.L("dir", d.dir))
		}
	}
	if n.elec == nil {
		return
	}
	el := telemetry.L("fabric", "electrical")
	reg.CounterFunc("oo_fabric_drops_total", "Packets dropped inside a fabric.",
		func() float64 { return float64(n.elec.DropsQueue) },
		el, telemetry.L("reason", string(core.DropElecQueue)))
	reg.CounterFunc("oo_fabric_drops_total", "Packets dropped inside a fabric.",
		func() float64 { return float64(n.elec.DropsNoRoute) },
		el, telemetry.L("reason", string(core.DropElecRoute)))
	reg.CounterFunc("oo_fabric_forwarded_total", "Packets forwarded by a fabric.",
		func() float64 { return float64(n.elec.Forwarded) }, el)
	for i := range n.switches {
		node := core.NodeID(i)
		reg.GaugeFunc("oo_elec_queue_max_bytes", "Electrical-fabric output-queue high-water mark.",
			func() float64 { return float64(n.elec.MaxQueueBytes(node)) },
			telemetry.L("node", strconv.Itoa(i)))
	}
}

func linkUtil(bytes uint64, bps int64, nowNs int64) float64 {
	if nowNs <= 0 || bps <= 0 {
		return 0
	}
	return float64(bytes) * 8 * 1e9 / (float64(bps) * float64(nowNs))
}

// Tracer attaches a sampled in-band packet tracer to every device (switch,
// host, both fabrics) and returns it. sampleRate is the fraction of flows
// traced (deterministic per-flow hash sampling; 1 traces everything).
// Direct the JSONL output with SetSink, or consume traces programmatically
// via OnFinish. Calling Tracer again replaces the previous tracer.
func (n *Net) Tracer(sampleRate float64) *telemetry.Tracer {
	tr := telemetry.NewTracer(sampleRate, nil)
	if n.reg != nil && n.tracer == nil {
		n.registerTraceHistograms(n.reg) // read through n.tracer, set below
	}
	n.tracer = tr
	for _, sw := range n.switches {
		sw.Tracer = tr
	}
	for _, h := range n.hosts {
		h.Tracer = tr
	}
	n.optical.Tracer = tr
	if n.elec != nil {
		n.elec.Tracer = tr
	}
	return tr
}
