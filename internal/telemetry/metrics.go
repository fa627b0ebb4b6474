// Package telemetry is the network-wide observability subsystem (the
// monitoring half of Table 1's infra services, grown into a first-class
// service): a metrics registry of counters, gauges, and histograms
// labelled by node/port/slice, Prometheus-text and JSON exporters, and a
// sampled in-band packet tracer that reconstructs a flow's full path and
// every drop reason.
//
// The registry only reads. Every metric is a view registered over state
// its owner already keeps — a device counter, a tracer histogram, an
// engine array — and evaluated at export time, so a registry built after
// a run reports exactly what one built before it would, and the hot path
// never touches the registry.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// MetricType is the Prometheus exposition type of a family.
type MetricType string

// Metric types.
const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Label is one name=value metric label.
type Label struct {
	Key, Value string
}

// L is shorthand for building a Label.
func L(k, v string) Label { return Label{Key: k, Value: v} }

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: counts per upper bound plus sum and count. Its owner fills it;
// the registry exports it through HistogramFunc.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf bucket implicit
	counts []uint64  // len(bounds)+1
	sum    float64
	count  uint64
}

// NewHistogram returns an empty histogram with the given ascending bucket
// upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the observation sum.
func (h *Histogram) Sum() float64 { return h.sum }

// metric is one labelled instance inside a family, read at export time
// from exactly one of fn (counters, gauges) or hist (histograms).
type metric struct {
	labels []Label
	fn     func() float64
	hist   func() *Histogram
}

// Family is all metrics sharing one name/help/type.
type Family struct {
	Name, Help string
	Type       MetricType
	metrics    []*metric
	index      map[string]*metric
	// collect, when set, makes the family dynamic: its metrics are
	// produced at export time by the callback (engine handler classes,
	// per-slice switch counters).
	collect func(emit func(labels []Label, v float64))
}

// Each calls fn for every static metric (and dynamic ones) in the family.
func (f *Family) Each(fn func(labels []Label, v float64)) {
	for _, m := range f.metrics {
		if m.hist != nil {
			continue // histograms are exported, not enumerated as scalars
		}
		fn(m.labels, m.fn())
	}
	if f.collect != nil {
		f.collect(fn)
	}
}

// Registry holds metric families in registration order.
type Registry struct {
	families []*Family
	byName   map[string]*Family
	// manifest, when set, is embedded in the JSON export so metrics files
	// carry their run's provenance (see internal/provenance).
	manifest any
}

// SetManifest attaches the run manifest embedded by WriteJSON. Call once
// at run start; export-time only, never on the simulation hot path.
func (r *Registry) SetManifest(m any) { r.manifest = m }

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Family)}
}

func (r *Registry) family(name, help string, typ MetricType) *Family {
	if f, ok := r.byName[name]; ok {
		if f.Type != typ {
			panic(fmt.Sprintf("telemetry: %s re-registered as %s (was %s)", name, typ, f.Type))
		}
		return f
	}
	f := &Family{Name: name, Help: help, Type: typ, index: make(map[string]*metric)}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// sig builds a canonical key for a label set.
func sig(labels []Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
		b.WriteByte(',')
	}
	return b.String()
}

// CounterFunc registers a counter whose value is read from fn at export
// time — zero hot-path cost for counters a device already maintains.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(name, help, TypeCounter, &metric{labels: labels, fn: fn})
}

// GaugeFunc registers a gauge read from fn at export time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.add(name, help, TypeGauge, &metric{labels: labels, fn: fn})
}

// HistogramFunc registers a histogram read from fn at export time — its
// owner fills it, the registry never does.
func (r *Registry) HistogramFunc(name, help string, fn func() *Histogram, labels ...Label) {
	r.add(name, help, TypeHistogram, &metric{labels: labels, hist: fn})
}

// add appends m to its family; a label set registered twice panics.
func (r *Registry) add(name, help string, typ MetricType, m *metric) {
	f := r.family(name, help, typ)
	k := sig(m.labels)
	if _, ok := f.index[k]; ok {
		panic(fmt.Sprintf("telemetry: duplicate %s{%s}", name, k))
	}
	f.metrics = append(f.metrics, m)
	f.index[k] = m
}

// DynamicFamily registers a family whose metrics are produced at export
// time by collect — for signals whose label space is discovered at
// runtime, like engine handler classes, or that one collector reads from
// every device, like the switches' per-slice arrays. A family can have only one
// collector; registering a second is a duplicate and panics.
func (r *Registry) DynamicFamily(name, help string, typ MetricType, collect func(emit func(labels []Label, v float64))) {
	f := r.family(name, help, typ)
	if f.collect != nil {
		panic(fmt.Sprintf("telemetry: dynamic family %s registered twice", name))
	}
	f.collect = collect
}

// Families returns the registered families in registration order.
func (r *Registry) Families() []*Family { return r.families }

// Value returns the current value of the metric with the exact label set,
// if registered. Dynamic families are not queryable.
func (r *Registry) Value(name string, labels ...Label) (float64, bool) {
	f, ok := r.byName[name]
	if !ok {
		return 0, false
	}
	m, ok := f.index[sig(labels)]
	if !ok || m.hist != nil {
		return 0, false
	}
	return m.fn(), true
}

// Sum adds up every metric in the family whose labels include all of the
// given labels (subset match) — e.g. Sum("oo_switch_drops_total",
// L("node", "3")) is node 3's drops across all reasons and slices.
func (r *Registry) Sum(name string, labels ...Label) float64 {
	f, ok := r.byName[name]
	if !ok {
		return 0
	}
	var total float64
	f.Each(func(ls []Label, v float64) {
		for _, want := range labels {
			found := false
			for _, l := range ls {
				if l == want {
					found = true
					break
				}
			}
			if !found {
				return
			}
		}
		total += v
	})
	return total
}
