// Package telemetry is the network-wide observability subsystem (the
// monitoring half of Table 1's infra services, grown into a first-class
// service): a metrics registry with typed counters, gauges, and histograms
// labelled by node/port/slice, Prometheus-text and JSON exporters, and a
// sampled in-band packet tracer that reconstructs a flow's full path and
// every drop reason.
//
// The simulation engine is single-threaded, so hot-path recording is a
// plain field increment behind a pointer — no atomics, no locks. Devices
// pre-resolve their counters at attach time; when telemetry is not
// attached the hot path pays one nil check.
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

// Counter is a monotonically increasing counter. Plain field — the engine
// serializes all device handlers.
type Counter struct {
	v float64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n (n must be non-negative for Prometheus semantics).
func (c *Counter) Add(n float64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() float64 { return c.v }

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: counts per upper bound plus sum and count.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf bucket implicit
	counts []uint64  // len(bounds)+1
	sum    float64
	count  uint64
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

// metric is one labelled instance inside a family. Exactly one of the
// value sources is set.
type metric struct {
	labels []Label
	c      *Counter
	fn     func() float64
	h      *Histogram
}

func (m *metric) value() float64 {
	switch {
	case m.c != nil:
		return m.c.Value()
	case m.fn != nil:
		return m.fn()
	}
	return 0
}

// Family is all metrics sharing one name/help/type.
type Family struct {
	Name, Help string
	Type       MetricType
	metrics    []*metric
	index      map[string]*metric
	// collect, when set, makes the family dynamic: its metrics are
	// produced at export time by the callback (engine profiling classes).
	collect func(emit func(labels []Label, v float64))
}

// Each calls fn for every static metric (and dynamic ones) in the family.
func (f *Family) Each(fn func(labels []Label, v float64)) {
	for _, m := range f.metrics {
		if m.h != nil {
			continue // histograms are exported, not enumerated as scalars
		}
		fn(m.labels, m.value())
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

// Counter registers (or returns the existing) counter with the given
// labels. Callers cache the pointer and increment it directly.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.family(name, help, TypeCounter)
	k := sig(labels)
	if m, ok := f.index[k]; ok {
		return m.c
	}
	m := &metric{labels: labels, c: &Counter{}}
	f.metrics = append(f.metrics, m)
	f.index[k] = m
	return m.c
}

// CounterFunc registers a counter whose value is read from fn at export
// time — zero hot-path cost for counters a device already maintains.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.addFunc(name, help, TypeCounter, fn, labels)
}

// GaugeFunc registers a gauge read from fn at export time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.addFunc(name, help, TypeGauge, fn, labels)
}

func (r *Registry) addFunc(name, help string, typ MetricType, fn func() float64, labels []Label) {
	f := r.family(name, help, typ)
	k := sig(labels)
	if _, ok := f.index[k]; ok {
		panic(fmt.Sprintf("telemetry: duplicate %s{%s}", name, k))
	}
	m := &metric{labels: labels, fn: fn}
	f.metrics = append(f.metrics, m)
	f.index[k] = m
}

// Histogram registers (or returns) a histogram with the given bucket
// upper bounds. Re-requesting an existing histogram must pass the same
// bounds — otherwise two call sites would silently share buckets chosen
// by whichever registered first, so a mismatch panics instead.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	f := r.family(name, help, TypeHistogram)
	k := sig(labels)
	if m, ok := f.index[k]; ok {
		if !equalBounds(m.h.bounds, bounds) {
			panic(fmt.Sprintf("telemetry: histogram %s{%s} re-registered with different bucket bounds (%v != %v)",
				name, k, bounds, m.h.bounds))
		}
		return m.h
	}
	h := &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	m := &metric{labels: labels, h: h}
	f.metrics = append(f.metrics, m)
	f.index[k] = m
	return h
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// DynamicFamily registers a family whose metrics are produced at export
// time by collect — for signals whose label space is discovered at
// runtime, like engine handler classes. A family can have only one
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
	if !ok || m.h != nil {
		return 0, false
	}
	return m.value(), true
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
