package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestSamplePercentiles(t *testing.T) {
	s := NewSample()
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {50, 50}, {95, 95}, {99, 99}, {100, 100},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if s.Mean() != 50.5 {
		t.Errorf("mean = %g", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 100 {
		t.Errorf("min/max = %g/%g", s.Min(), s.Max())
	}
	if s.N() != 100 {
		t.Errorf("n = %d", s.N())
	}
}

func TestSampleEmpty(t *testing.T) {
	s := NewSample()
	if s.Percentile(50) != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sample should report zeros")
	}
	if s.CDF(10) != nil {
		t.Fatal("empty CDF should be nil")
	}
}

func TestSampleCDF(t *testing.T) {
	s := NewSample()
	for i := 0; i < 1000; i++ {
		s.Add(float64(i))
	}
	cdf := s.CDF(10)
	if len(cdf) != 10 {
		t.Fatalf("cdf len = %d", len(cdf))
	}
	if cdf[9].P != 1 || cdf[9].V != 999 {
		t.Fatalf("last point = %+v", cdf[9])
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].V < cdf[i-1].V || cdf[i].P <= cdf[i-1].P {
			t.Fatal("CDF not monotone")
		}
	}
}

// Property: Percentile agrees with direct computation on sorted data.
func TestPercentileProperty(t *testing.T) {
	f := func(vals []float64, praw uint8) bool {
		if len(vals) == 0 {
			return true
		}
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				vals[i] = 0
			}
		}
		s := NewSample()
		for _, v := range vals {
			s.Add(v)
		}
		p := float64(praw % 101)
		got := s.Percentile(p)
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
		if rank < 0 {
			rank = 0
		}
		return got == sorted[rank]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(100, 1000)
	for i := 0; i < 1000; i++ {
		h.Add(float64(i))
	}
	// Quantile returns bin upper edges: within one bin width (10).
	if q := h.Quantile(0.5); math.Abs(q-500) > 10 {
		t.Errorf("q50 = %g", q)
	}
	if q := h.Quantile(0.999); math.Abs(q-999) > 10 {
		t.Errorf("q999 = %g", q)
	}
	if h.Count() != 1000 {
		t.Errorf("count = %d", h.Count())
	}
	if math.Abs(h.Mean()-499.5) > 0.01 {
		t.Errorf("mean = %g", h.Mean())
	}
	if h.Max() != 999 {
		t.Errorf("max = %g", h.Max())
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(10, 100)
	h.Add(-5)  // clamps to 0
	h.Add(1e9) // clamps into last bin
	h.Add(50)
	if h.Count() != 3 {
		t.Fatal("clamped values not counted")
	}
	if q := h.Quantile(1); q != 100 {
		t.Fatalf("overflow quantile = %g, want max", q)
	}
}

func TestHistogramEmptyAndBadShape(t *testing.T) {
	h := NewHistogram(8, 10)
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("bad shape should panic")
		}
	}()
	NewHistogram(0, 10)
}

// Property: histogram quantiles are within one bin width of exact sample
// percentiles for in-range data.
func TestHistogramVsSampleProperty(t *testing.T) {
	f := func(raw []uint16, praw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram(256, 65536)
		s := NewSample()
		for _, v := range raw {
			h.Add(float64(v))
			s.Add(float64(v))
		}
		q := float64(praw) / 255
		exact := s.Percentile(q * 100)
		approx := h.Quantile(q)
		binW := 65536.0 / 256
		return approx >= exact-binW && approx <= exact+binW+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramRejectsNonFinite(t *testing.T) {
	h := NewHistogram(10, 100)
	h.Add(50)
	h.Add(math.NaN())
	h.Add(math.Inf(1))
	h.Add(math.Inf(-1))
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1 (non-finite must not count)", h.Count())
	}
	if h.Rejected() != 3 {
		t.Fatalf("rejected = %d, want 3", h.Rejected())
	}
	if h.Mean() != 50 {
		t.Fatalf("mean = %g, non-finite values poisoned the sum", h.Mean())
	}
	if q := h.Quantile(0.5); math.IsNaN(q) || q != 50 {
		t.Fatalf("q50 = %g, want 50 (the observed max, below its bin's upper edge 60)", q)
	}
	if h.Max() != 50 {
		t.Fatalf("max = %g", h.Max())
	}
}

func TestHistogramSingleBin(t *testing.T) {
	h := NewHistogram(1, 10)
	h.Add(1)
	h.Add(9)
	h.Add(42) // clamps into the only bin
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	// Every quantile of a one-bin histogram is the bin's upper edge.
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 10 {
			t.Fatalf("Quantile(%g) = %g, want 10", q, got)
		}
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := NewHistogram(10, 100)
	h.Add(35) // lands in bin [30,40)
	h.Add(75) // lands in bin [70,80)
	// q=0 clamps to the first observation's bin upper edge.
	if got := h.Quantile(0); got != 40 {
		t.Errorf("Quantile(0) = %g, want 40", got)
	}
	// q=1 is the observed max, not its bin's upper edge 80.
	if got := h.Quantile(1); got != 75 {
		t.Errorf("Quantile(1) = %g, want 75", got)
	}
	// Out-of-range q clamps rather than extrapolating.
	if got := h.Quantile(-3); got != 40 {
		t.Errorf("Quantile(-3) = %g, want 40", got)
	}
	if got := h.Quantile(7); got != 75 {
		t.Errorf("Quantile(7) = %g, want 75", got)
	}
}

// TestHistogramQuantileNeverExceedsMax: a lone 100 B observation in the
// switch's buffer histogram (1024 bins over 64 MB, 64 KiB each) reports
// every quantile as 100, not the 65,536 B edge of its bin.
func TestHistogramQuantileNeverExceedsMax(t *testing.T) {
	h := NewHistogram(1024, 64<<20)
	h.Add(100)
	for _, q := range []float64{0.5, 0.999, 1} {
		if got := h.Quantile(q); got != 100 {
			t.Errorf("Quantile(%g) = %g, want 100", q, got)
		}
	}
}

func TestSampleCDFEdges(t *testing.T) {
	s := NewSample()
	s.Add(1)
	s.Add(2)
	// Fewer than 2 requested points cannot describe a distribution.
	if s.CDF(1) != nil || s.CDF(0) != nil || s.CDF(-4) != nil {
		t.Fatal("CDF(n<2) should be nil even on a non-empty sample")
	}
	// Duplicates: P stays strictly increasing, V is non-decreasing (repeats
	// allowed where the same value spans several probability steps).
	d := NewSample()
	for _, v := range []float64{5, 5, 5, 5, 1} {
		d.Add(v)
	}
	cdf := d.CDF(5)
	if len(cdf) != 5 {
		t.Fatalf("cdf len = %d", len(cdf))
	}
	if cdf[0].V != 1 || cdf[4].V != 5 || cdf[4].P != 1 {
		t.Fatalf("cdf endpoints = %+v .. %+v", cdf[0], cdf[4])
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i].V < cdf[i-1].V {
			t.Fatalf("V not monotone at %d: %+v", i, cdf)
		}
		if cdf[i].P <= cdf[i-1].P {
			t.Fatalf("P not strictly increasing at %d: %+v", i, cdf)
		}
	}
}

func TestSummaryFormat(t *testing.T) {
	s := NewSample()
	s.Add(1)
	s.Add(2)
	out := s.Summary()
	if out == "" || len(out) < 20 {
		t.Fatalf("summary = %q", out)
	}
}
