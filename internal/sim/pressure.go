package sim

// Scheduler-pressure telemetry: a cheap, always-on view of how hard the
// calendar queue is working. The counters live in scheduler (sched.go) and
// cost a few integer operations per push; this file is the read side — a
// plain-value snapshot embeddable in Net.Snapshot() and the telemetry
// registry.

// SchedPressure is a point-in-time snapshot of scheduler pressure. All
// fields are plain values so the struct marshals deterministically.
type SchedPressure struct {
	// Residency now.
	PendingEvents  int `json:"pending_events"`
	WheelEvents    int `json:"wheel_events"`
	OverflowEvents int `json:"overflow_events"`
	SlabCap        int `json:"slab_cap"`
	FreeSlots      int `json:"free_slots"`

	// Cumulative counters since engine construction. InlinePushes counts
	// links into a bucket the cursor has not opened, SpillPushes links
	// into the open bucket, OverflowPushes pushes outside the calendar
	// window, and Resorts the buckets of two or more events the cursor
	// filed by nanosecond as it opened them (once sorted, hence the name).
	InlinePushes   uint64 `json:"inline_pushes"`
	SpillPushes    uint64 `json:"spill_pushes"`
	OverflowPushes uint64 `json:"overflow_pushes"`
	Resorts        uint64 `json:"resorts"`
	// Clamps counts events scheduled in the virtual past and run at the
	// current time instead: device-logic faults that normal builds
	// survive (simdebug builds panic on the first).
	Clamps uint64 `json:"clamps"`

	// High-water marks: events in the calendar's buckets, and in the
	// overflow heap.
	MaxWheelEvents    int `json:"max_wheel_events"`
	MaxOverflowEvents int `json:"max_overflow_events"`
}

// SchedPressure captures the current scheduler-pressure snapshot.
func (e *Engine) SchedPressure() SchedPressure {
	s := &e.sched
	return SchedPressure{
		PendingEvents:     s.n,
		WheelEvents:       s.wheelCount,
		OverflowEvents:    len(s.overflow),
		SlabCap:           len(s.slab),
		FreeSlots:         len(s.free),
		InlinePushes:      s.inlinePushes,
		SpillPushes:       s.spillPushes,
		OverflowPushes:    s.overflowPushes,
		Resorts:           s.resorts,
		Clamps:            e.clamps,
		MaxWheelEvents:    s.maxWheel,
		MaxOverflowEvents: s.maxOverflow,
	}
}
