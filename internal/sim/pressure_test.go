package sim

import "testing"

// TestSchedPressureCounters drives known push patterns through the
// calendar queue and checks the pressure snapshot attributes each one
// correctly: links into unopened buckets, pushes into the open bucket,
// overflow beyond the window, and one count per multi-event bucket the
// cursor opens.
func TestSchedPressureCounters(t *testing.T) {
	e := New()
	// The first push anchors the window, so t = 0..19 all land in the
	// open bucket's nanosecond lists.
	for i := 0; i < 20; i++ {
		e.At(int64(i), func() {})
	}
	// Twelve events linked, in reverse time order, into the next bucket,
	// and one alone in a later bucket.
	for i := 11; i >= 0; i-- {
		e.At(bucketWidth+int64(i), func() {})
	}
	e.At(5*bucketWidth, func() {})
	// Far beyond the window (1024 buckets × 128 ns): overflow heap.
	e.At(10_000_000, func() {})

	p := e.SchedPressure()
	if p.PendingEvents != 34 {
		t.Fatalf("pending = %d, want 34", p.PendingEvents)
	}
	if p.WheelEvents != 33 || p.OverflowEvents != 1 {
		t.Fatalf("wheel=%d overflow=%d, want 33/1", p.WheelEvents, p.OverflowEvents)
	}
	if p.InlinePushes != 13 || p.SpillPushes != 20 || p.OverflowPushes != 1 {
		t.Fatalf("pushes inline=%d spill=%d overflow=%d, want 13/20/1",
			p.InlinePushes, p.SpillPushes, p.OverflowPushes)
	}
	if p.MaxWheelEvents != 33 || p.MaxOverflowEvents != 1 {
		t.Fatalf("max wheel=%d overflow=%d, want 33/1", p.MaxWheelEvents, p.MaxOverflowEvents)
	}
	if p.Resorts != 0 {
		t.Fatalf("resorts before the run = %d, want 0", p.Resorts)
	}

	var last int64 = -1
	e.At(bucketWidth+3, func() {
		// Fires inside the opened twelve-event bucket: a same-bucket push
		// links into its nanosecond list.
		e.At(e.Now()+1, func() { last = e.Now() })
	})
	e.Run()
	p = e.SchedPressure()
	if p.PendingEvents != 0 || p.WheelEvents != 0 || p.OverflowEvents != 0 {
		t.Fatalf("residency after run = %+v", p)
	}
	// Only the thirteen-event bucket counts: the single event and the
	// overflow event are served without a walk of two or more.
	if p.Resorts != 1 {
		t.Fatalf("resorts = %d, want 1", p.Resorts)
	}
	if p.InlinePushes != 14 || p.SpillPushes != 21 {
		t.Fatalf("pushes inline=%d spill=%d after the run, want 14/21", p.InlinePushes, p.SpillPushes)
	}
	if last != bucketWidth+4 {
		t.Fatalf("open-bucket push fired at %d, want %d", last, bucketWidth+4)
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
