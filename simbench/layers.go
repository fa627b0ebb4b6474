package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"openoptics/internal/sim"
)

// metric is one named number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) put(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// ratio is a/b, or 0 when b is 0 (a layer the workload never enters).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const mb = 1e6

// classLayers names the engine's handler classes after the module whose
// handlers they run. On these workloads class "other" is only the
// replay's flow arrivals.
var classLayers = []struct {
	class sim.Class
	name  string
}{
	{sim.ClassLinkDeliver, "fabric.link_deliver"},
	{sim.ClassFabricOptical, "fabric.optical"},
	{sim.ClassFabricElec, "fabric.elec"},
	{sim.ClassSwitchIngress, "switchsim.ingress"},
	{sim.ClassSwitchDrain, "switchsim.drain"},
	{sim.ClassSwitchRotate, "switchsim.rotate"},
	{sim.ClassSwitchSignal, "switchsim.signal"},
	{sim.ClassHostTx, "hostsim.tx"},
	{sim.ClassTransportRTO, "transport.rto"},
	{sim.ClassOther, "traffic.arrival"},
}

// budget splits a traced run's host time per packet into the engine's
// handler classes, the control ticks' self time, and the residual no
// handler or tick accounts for: the scheduler, dispatch itself, and the
// profiler's clock reads.
type budget struct {
	pkts      float64
	classNs   [sim.NumClasses]float64 // per packet
	controlNs float64                 // per packet
	tracedNs  float64                 // traced run time per packet
}

func newBudget(t tracedRun) budget {
	b := budget{pkts: float64(t.fp.Outcome.Packets)}
	for c := range t.classNs {
		b.classNs[c] = ratio(float64(t.classNs[c]), b.pkts)
	}
	var control int64
	for _, tk := range t.ticks {
		control += tk.selfNs
	}
	b.controlNs = ratio(float64(control), b.pkts)
	b.tracedNs = ratio(float64(t.runNs), b.pkts)
	return b
}

func (b budget) accountedNs() float64 {
	s := b.controlNs
	for _, v := range b.classNs {
		s += v
	}
	return s
}

func (b budget) residualNs() float64 { return b.tracedNs - b.accountedNs() }

// print writes the budget line: Σ_class(ns/event × events/pkt) plus the
// control loop, against the traced ns/pkt.
func (b budget) print(out io.Writer, name string, t tracedRun, overhead float64) {
	var terms []string
	for c := sim.Class(0); c < sim.NumClasses; c++ {
		n := t.fp.Counts.Classes[c]
		if n == 0 {
			continue
		}
		terms = append(terms, fmt.Sprintf("%s %.3g ev/pkt x %.0f ns = %.0f",
			c, ratio(float64(n), b.pkts), ratio(float64(t.classNs[c]), float64(n)), b.classNs[c]))
	}
	if b.controlNs > 0 {
		terms = append(terms, fmt.Sprintf("control %.0f", b.controlNs))
	}
	fmt.Fprintf(out, "budget %s: %s ns/pkt; sum %.0f of traced %.0f ns/pkt; residual (scheduler, dispatch, profiling) %.0f ns/pkt = %.1f%%; trace.overhead %.3f\n",
		name, strings.Join(terms, " + "), b.accountedNs(), b.tracedNs, b.residualNs(),
		100*ratio(b.residualNs(), b.tracedNs), overhead)
}

// layerMetrics computes the per-layer metrics of one traced run paired
// with an untraced run of the same seed.
func layerMetrics(sp *spanLog, t tracedRun, u untracedRun) metricSet {
	m := metricSet{}
	o, c := t.fp.Outcome, t.fp.Counts
	pkts, events := float64(o.Packets), float64(o.Events)
	b := newBudget(t)

	m.put("sim.events", "count", events)
	m.put("sim.events_per_pkt", "events/pkt", ratio(events, pkts))
	m.put("sim.dispatch_ns_per_event", "ns", ratio(b.residualNs()*pkts, events))
	m.put("sim.inline_pushes", "count", float64(c.InlinePushes))
	m.put("sim.spill_pushes", "count", float64(c.SpillPushes))
	m.put("sim.overflow_pushes", "count", float64(c.OverflowPushes))
	m.put("sim.resorts", "count", float64(c.Resorts))
	m.put("sim.max_wheel_events", "count", float64(c.MaxWheelEvents))
	for _, cl := range classLayers {
		n := float64(c.Classes[cl.class])
		m.put(cl.name+".events", "count", n)
		m.put(cl.name+".ns_per_event", "ns", ratio(float64(t.classNs[cl.class]), n))
	}
	m.put("switchsim.slice_miss_ratio", "ratio", ratio(float64(c.SliceMisses), float64(c.RxPkts)))
	m.put("transport.retx_ratio", "ratio", ratio(float64(c.Retransmissions), pkts))
	m.put("core.pkts", "count", pkts)
	m.put("core.pool_high_water", "count", float64(c.PoolHighWater))

	m.put("topo.ms", "ms", float64(sp.totalNs("topo", t.root))/1e6)
	m.put("routing.ms", "ms", float64(sp.totalNs("routing", t.root))/1e6)
	m.put("controller.deploy_ms", "ms", float64(sp.totalNs("controller.deploy", t.root))/1e6)

	var epochNs, collectNs []int64
	var tickNs int64
	var tickAlloc uint64
	for _, tk := range t.ticks {
		tickNs += tk.ns
		tickAlloc += tk.allocBytes
		if tk.reprogrammed {
			epochNs = append(epochNs, tk.ns)
		} else {
			collectNs = append(collectNs, tk.ns)
		}
	}
	m.put("demand.ticks", "count", float64(len(t.ticks)))
	m.put("demand.reprograms", "count", float64(o.Reprograms))
	m.put("demand.epoch_ms_p50", "ms", median(epochNs)/1e6)
	m.put("demand.collect_ms_p50", "ms", median(collectNs)/1e6)
	m.put("demand.share", "ratio", ratio(float64(tickNs), float64(t.runNs)))
	m.put("demand.alloc_mb", "MB", float64(tickAlloc)/mb)

	m.put("runtime.alloc_mb", "MB", float64(u.allocBytes)/mb)
	m.put("runtime.allocs_per_pkt", "allocs/pkt", ratio(float64(u.allocs), pkts))
	m.put("runtime.gc_cycles", "count", float64(u.gcCycles))
	m.put("runtime.gc_pause_ms", "ms", float64(u.gcPauseNs)/1e6)

	m.put("trace.overhead", "ratio", ratio(float64(t.runNs), float64(u.runNs)))
	m.put("budget.residual_share", "ratio", ratio(b.residualNs(), b.tracedNs))
	return m
}

// medianSet takes each metric's median over several sets.
func medianSet(sets []metricSet) metricSet {
	out := metricSet{}
	if len(sets) == 0 {
		return out
	}
	names := make([]string, 0, len(sets[0]))
	for k := range sets[0] {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		vs := make([]float64, len(sets))
		for i, s := range sets {
			vs[i] = s[k].Value
		}
		out.put(k, sets[0][k].Unit, median(vs))
	}
	return out
}
