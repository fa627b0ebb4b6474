// Package stats provides the measurement primitives the experiment harness
// uses: streaming histograms with quantile queries, exact sample
// collectors with percentiles and CDFs, and flow-completion-time
// accounting.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Histogram is a fixed-range linear-bin streaming histogram. It trades
// exactness for O(1) memory — right for high-volume signals like per-packet
// buffer occupancy. Values beyond max clamp into the last bin.
type Histogram struct {
	bins     []uint64
	max      float64
	count    uint64
	sum      float64
	maxV     float64
	rejected uint64
}

// NewHistogram creates a histogram with n bins over [0, max).
func NewHistogram(n int, max float64) *Histogram {
	if n < 1 || max <= 0 {
		panic(fmt.Sprintf("stats: bad histogram shape n=%d max=%g", n, max))
	}
	return &Histogram{bins: make([]uint64, n), max: max}
}

// Add records one observation. Non-finite values (NaN, ±Inf) are rejected
// — one would poison the running sum and every quantile after it — and
// tallied in Rejected.
func (h *Histogram) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.rejected++
		return
	}
	if v < 0 {
		v = 0
	}
	i := int(v / h.max * float64(len(h.bins)))
	if i >= len(h.bins) {
		i = len(h.bins) - 1
	}
	h.bins[i]++
	h.count++
	h.sum += v
	if v > h.maxV {
		h.maxV = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Rejected returns how many non-finite observations Add refused.
func (h *Histogram) Rejected() uint64 { return h.rejected }

// Mean returns the observation mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest observation seen.
func (h *Histogram) Max() float64 { return h.maxV }

// Quantile returns the q-quantile (q in [0,1]) as the upper edge of the
// bin containing it, or the largest observation when that is lower — a
// conservative (over-)estimate within one bin width that never exceeds
// the observed maximum.
func (h *Histogram) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.bins {
		cum += c
		if cum >= target {
			return math.Min(float64(i+1)/float64(len(h.bins))*h.max, h.maxV)
		}
	}
	return h.max
}

// Sample is an exact observation collector for lower-volume signals (FCTs,
// RTTs) where exact percentiles and CDFs matter.
type Sample struct {
	vals   []float64
	sorted bool
	sum    float64
}

// NewSample returns an empty collector.
func NewSample() *Sample { return &Sample{} }

// Add records one observation.
func (s *Sample) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
	s.sum += v
}

// N returns the observation count.
func (s *Sample) N() int { return len(s.vals) }

// Mean returns the mean (0 when empty).
func (s *Sample) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.sum / float64(len(s.vals))
}

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// Percentile returns the p-th percentile (p in [0,100]) by nearest-rank.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.sort()
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 100 {
		return s.vals[len(s.vals)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(s.vals)))) - 1
	if rank < 0 {
		rank = 0
	}
	return s.vals[rank]
}

// Min and Max return the extremes (0 when empty).
func (s *Sample) Min() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.sort()
	return s.vals[0]
}

// Max returns the largest observation.
func (s *Sample) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.sort()
	return s.vals[len(s.vals)-1]
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	V float64 // value
	P float64 // cumulative probability (0,1]
}

// CDF returns an n-point empirical CDF (n >= 2).
func (s *Sample) CDF(n int) []CDFPoint {
	if len(s.vals) == 0 || n < 2 {
		return nil
	}
	s.sort()
	out := make([]CDFPoint, 0, n)
	for i := 0; i < n; i++ {
		p := float64(i+1) / float64(n)
		idx := int(math.Ceil(p*float64(len(s.vals)))) - 1
		if idx < 0 {
			idx = 0
		}
		out = append(out, CDFPoint{V: s.vals[idx], P: p})
	}
	return out
}

// Summary renders the canonical row the benchmark tables print.
func (s *Sample) Summary() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p95=%.1f p99=%.1f p999=%.1f max=%.1f",
		s.N(), s.Mean(), s.Percentile(50), s.Percentile(95), s.Percentile(99),
		s.Percentile(99.9), s.Max())
}
