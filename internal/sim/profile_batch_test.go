package sim

import "testing"

// Coverage for ProfileStats when the calendar serves a bucket from its
// sorted run and from its heap of same-bucket pushes: per-class event
// counts and wall-time attribution must cover every dispatch either way.

// batchWorkload runs a fixed mixed-class workload — five instants with
// eight same-instant events each, plus drain-triggered cascades — and
// returns the per-class profile.
func batchWorkload() []ClassStats {
	e := New()
	e.EnableProfiling(true)
	classes := []Class{ClassLinkDeliver, ClassSwitchIngress, ClassSwitchDrain, ClassHostTx}
	spin := 0
	for i := 0; i < 40; i++ {
		c := classes[i%len(classes)]
		t0 := int64((i % 5) * 100)
		e.AtClass(t0, c, func() {
			// Enough work that wall-time attribution is measurable.
			for k := 0; k < 2000; k++ {
				spin += k
			}
			if c == ClassSwitchDrain {
				e.AfterClass(50, ClassLinkDeliver, func() {})
			}
		})
	}
	e.Run()
	_ = spin
	return e.ProfileStats()
}

func countsOf(stats []ClassStats) map[Class]uint64 {
	m := map[Class]uint64{}
	for _, s := range stats {
		m[s.Class] = s.Count
	}
	return m
}

func TestProfileStatsInvariantUnderBatchedDispatch(t *testing.T) {
	stats := batchWorkload()
	counts := countsOf(stats)
	if counts[ClassLinkDeliver] != 20 || counts[ClassSwitchDrain] != 10 {
		t.Fatalf("unexpected counts %v (want 10 drains spawning 10 extra link.delivers)", counts)
	}
	// Wall-time attribution follows the classes: each profiled class
	// accumulated measurable time.
	for _, s := range stats {
		if s.WallNs <= 0 {
			t.Fatalf("class %s count=%d but wall=%d", s.Class, s.Count, s.WallNs)
		}
	}
}

// TestProfileStatsDeterministicAcrossRuns: the same workload yields
// identical per-class counts run-to-run (wall time is real time and may
// differ).
func TestProfileStatsDeterministicAcrossRuns(t *testing.T) {
	a := countsOf(batchWorkload())
	b := countsOf(batchWorkload())
	if len(a) != len(b) {
		t.Fatalf("class sets differ: %v vs %v", a, b)
	}
	for c, n := range a {
		if b[c] != n {
			t.Fatalf("class %s: %d vs %d across identical runs", c, n, b[c])
		}
	}
}
