package sim

import "testing"

// TestSchedPressureCounters drives known push patterns through the
// calendar queue and checks the pressure snapshot attributes each one
// correctly: inline vs spill within a bucket, overflow beyond the wheel
// horizon, occupancy-histogram totals, and drain-time churn counters.
func TestSchedPressureCounters(t *testing.T) {
	e := New()
	// 20 events in one 512 ns bucket: the first bucketInline land in the
	// inline array, the rest spill.
	for i := 0; i < 20; i++ {
		e.At(int64(i), func() {})
	}
	// Far beyond the wheel horizon (1024 buckets × 512 ns): overflow heap.
	e.At(10_000_000, func() {})

	p := e.SchedPressure()
	if p.PendingEvents != 21 {
		t.Fatalf("pending = %d, want 21", p.PendingEvents)
	}
	if p.WheelEvents != 20 || p.OverflowEvents != 1 {
		t.Fatalf("wheel=%d overflow=%d, want 20/1", p.WheelEvents, p.OverflowEvents)
	}
	if p.InlinePushes != 8 || p.SpillPushes != 12 || p.OverflowPushes != 1 {
		t.Fatalf("pushes inline=%d spill=%d overflow=%d, want 8/12/1",
			p.InlinePushes, p.SpillPushes, p.OverflowPushes)
	}
	if p.MaxWheelEvents != 20 || p.MaxOverflowEvents != 1 {
		t.Fatalf("max wheel=%d overflow=%d, want 20/1", p.MaxWheelEvents, p.MaxOverflowEvents)
	}
	var occSum uint64
	for _, c := range p.BucketOccupancy {
		occSum += c
	}
	if occSum != 20 {
		t.Fatalf("occupancy histogram sums to %d, want one sample per wheel push (20)", occSum)
	}
	// Depth 1 lands in class 1, depths 2-3 in class 2 (see OccLabel).
	if p.BucketOccupancy[1] != 1 || p.BucketOccupancy[2] != 2 {
		t.Fatalf("occupancy[1]=%d occupancy[2]=%d, want 1/2",
			p.BucketOccupancy[1], p.BucketOccupancy[2])
	}

	e.Run()
	p = e.SchedPressure()
	if p.PendingEvents != 0 {
		t.Fatalf("pending after run = %d", p.PendingEvents)
	}
	// Draining a 20-deep bucket takes the sorted batch path.
	if p.Resorts == 0 {
		t.Fatal("deep-bucket drain recorded no resort")
	}
	// The far-future event reaches the wheel via migration or a window
	// re-anchor; either way the churn is visible.
	if p.Migrations == 0 && p.Reanchors == 0 {
		t.Fatal("overflow event drained without any recorded migration or re-anchor")
	}
}

// TestSchedPressureSnapshotIsCheapView verifies the snapshot reflects live
// scheduler state without disturbing it: capturing twice is identical, and
// capturing does not advance any counter.
func TestSchedPressureSnapshotIsCheapView(t *testing.T) {
	e := New()
	for i := 0; i < 5; i++ {
		e.At(int64(i*1000), func() {})
	}
	a := e.SchedPressure()
	b := e.SchedPressure()
	if a != b {
		t.Fatalf("back-to-back snapshots differ:\n%+v\n%+v", a, b)
	}
}

func TestOccLabels(t *testing.T) {
	for _, tc := range []struct {
		i    int
		want string
	}{
		{0, "0"}, {1, "1"}, {2, "2-3"}, {3, "4-7"}, {4, "8-15"},
	} {
		if got := OccLabel(tc.i); got != tc.want {
			t.Fatalf("OccLabel(%d) = %q, want %q", tc.i, got, tc.want)
		}
	}
	// The final class is open-ended.
	if got := OccLabel(occBuckets - 1); got[len(got)-1] != '+' {
		t.Fatalf("last occ label %q not open-ended", got)
	}
}
