package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"

	"openoptics/internal/provenance"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers followed by one sample line
// per labelled metric; histograms expand to _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.families {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.Name, escapeHelp(f.Help), f.Name, f.Type); err != nil {
			return err
		}
		var err error
		f.Each(func(labels []Label, v float64) {
			if err != nil {
				return
			}
			_, err = fmt.Fprintf(w, "%s%s %s\n", f.Name, promLabels(labels), promFloat(v))
		})
		if err != nil {
			return err
		}
		for _, m := range f.metrics {
			if m.hist == nil {
				continue
			}
			if err := writePromHistogram(w, f.Name, m.labels, m.hist()); err != nil {
				return err
			}
		}
	}
	return nil
}

func writePromHistogram(w io.Writer, name string, labels []Label, h *Histogram) error {
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i]
		ls := append(append([]Label{}, labels...), L("le", promFloat(b)))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(ls), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)]
	ls := append(append([]Label{}, labels...), L("le", "+Inf"))
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(ls), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, promLabels(labels), promFloat(h.sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, promLabels(labels), h.count)
	return err
}

func promLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, "\\", "\\\\")
	return strings.ReplaceAll(s, "\n", "\\n")
}

// jsonMetric is one exported sample in the JSON rendering.
type jsonMetric struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  *float64          `json:"value,omitempty"`
	// Histogram fields.
	Buckets map[string]uint64 `json:"buckets,omitempty"`
	Sum     *float64          `json:"sum,omitempty"`
	Count   *uint64           `json:"count,omitempty"`
}

type jsonFamily struct {
	Name    string       `json:"name"`
	Help    string       `json:"help"`
	Type    MetricType   `json:"type"`
	Metrics []jsonMetric `json:"metrics"`
}

// jsonExport is the versioned envelope of the JSON rendering: the schema
// version, the run manifest (when attached via SetManifest), and the
// metric families.
type jsonExport struct {
	SchemaVersion int          `json:"schema_version"`
	Manifest      any          `json:"manifest,omitempty"`
	Families      []jsonFamily `json:"families"`
}

// WriteJSON renders the registry as a versioned JSON document:
// {"schema_version": N, "manifest": {...}, "families": [...]}.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := make([]jsonFamily, 0, len(r.families))
	for _, f := range r.families {
		jf := jsonFamily{Name: f.Name, Help: f.Help, Type: f.Type, Metrics: []jsonMetric{}}
		f.Each(func(labels []Label, v float64) {
			val := v
			jf.Metrics = append(jf.Metrics, jsonMetric{Labels: labelMap(labels), Value: &val})
		})
		for _, m := range f.metrics {
			if m.hist == nil {
				continue
			}
			h := m.hist()
			buckets := make(map[string]uint64, len(h.bounds)+1)
			var cum uint64
			for i, b := range h.bounds {
				cum += h.counts[i]
				buckets[promFloat(b)] = cum
			}
			cum += h.counts[len(h.bounds)]
			buckets["+Inf"] = cum
			sum, count := h.sum, h.count
			jf.Metrics = append(jf.Metrics, jsonMetric{
				Labels: labelMap(m.labels), Buckets: buckets, Sum: &sum, Count: &count,
			})
		}
		out = append(out, jf)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonExport{
		SchemaVersion: provenance.SchemaVersion,
		Manifest:      r.manifest,
		Families:      out,
	})
}

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// RegisterCounterStruct reflects over a struct of uint64 counter fields (a
// device's Counters block) and registers one CounterFunc per field named
// prefix_<snake_case_field>_total with the given labels. The pointer must
// stay valid for the registry's lifetime; values are read at export time,
// so the device's hot path is untouched.
func RegisterCounterStruct(r *Registry, prefix, help string, ptr any, labels ...Label) {
	rv := reflect.ValueOf(ptr)
	if rv.Kind() != reflect.Pointer || rv.Elem().Kind() != reflect.Struct {
		panic("telemetry: RegisterCounterStruct needs a pointer to a struct")
	}
	sv := rv.Elem()
	st := sv.Type()
	for i := 0; i < st.NumField(); i++ {
		f := st.Field(i)
		if !f.IsExported() || f.Type.Kind() != reflect.Uint64 {
			continue
		}
		fv := sv.Field(i)
		r.CounterFunc(
			prefix+"_"+SnakeCase(f.Name)+"_total",
			help+": "+f.Name,
			func() float64 { return float64(fv.Uint()) },
			labels...,
		)
	}
}

// SnakeCase converts a Go field name (RxPkts, DropsNoRoute) to a
// Prometheus-style snake_case metric component (rx_pkts, drops_no_route).
func SnakeCase(s string) string {
	isUpper := func(c byte) bool { return c >= 'A' && c <= 'Z' }
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if isUpper(c) {
			// Word boundary: after a lowercase/digit, or at the last
			// letter of an acronym run (RTOFires -> rto_fires).
			if i > 0 && (!isUpper(s[i-1]) || (i+1 < len(s) && !isUpper(s[i+1]))) {
				b.WriteByte('_')
			}
			b.WriteByte(c - 'A' + 'a')
			continue
		}
		b.WriteByte(c)
	}
	return b.String()
}
