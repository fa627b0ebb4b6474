package sim

import "math"

// This file is the engine's event store: a calendar queue of unsorted,
// append-only buckets for the near future, an overflow 4-ary heap for
// everything else, and event payloads (handler closure or pre-bound action,
// operands, profiling class) kept in a slab with a free list. Steady-state
// scheduling performs zero heap allocations — every backing array (buckets,
// heaps, slab, free list) is reused across events.
//
// A push appends its event to the bucket covering its time. The cursor's
// bucket is sorted by (t, seq) once, when the cursor opens it, and then
// consumed front to back; events pushed into the open bucket afterwards go
// to one small 4-ary heap. On the simulator's workloads a bucket collects
// tens to hundreds of events before the cursor reaches it, so one sort per
// bucket replaces a heap sift per event.
//
// Determinism: the scheduler realizes the exact (t, seq) total order a
// binary heap produces. Every pop takes the minimum of the open bucket's
// sorted run, the open bucket's heap and the overflow top; every other
// bucket holds strictly later times. Overflow events never migrate into
// buckets, so no structural move can reorder them.

// Calendar geometry: 1024 buckets of 128 ns cover a ~131 µs window. Wire
// propagation, serialization and pipeline delays land a few buckets ahead
// of the cursor; RTO checks and long timers go to the overflow heap.
const (
	wheelShift   = 7 // log2 of bucket width in ns
	bucketWidth  = int64(1) << wheelShift
	wheelBuckets = 1024
	wheelMask    = wheelBuckets - 1
	wheelSpan    = bucketWidth * wheelBuckets
)

// item is one queued event's sort key plus the slab slot of its payload.
type item struct {
	t    int64
	seq  uint64
	slot int32
}

// itemLess is the engine's total order: time, then scheduling order.
func itemLess(a, b item) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return a.seq < b.seq
}

// Action is a pre-bound event target for the closure-free scheduling path
// (Engine.AtEvent/AfterEvent): a long-lived object whose RunEvent is
// invoked with the operands recorded at scheduling time. Devices convert
// themselves (or a tiny adapter) to an Action once at construction; the
// per-event cost is then three slab stores instead of a closure
// allocation. arg carries a pointer operand (packet, queue); v carries a
// scalar (port number, byte count) — whatever the adapter defined.
type Action interface {
	RunEvent(arg any, v int64)
}

// eventRec is the slab-resident payload of one queued event: either a
// closure (fn) or a pre-bound action with its operands.
type eventRec struct {
	fn    func()
	act   Action
	arg   any
	v     int64
	class Class
}

// scheduler is the calendar-queue/overflow-heap event store.
type scheduler struct {
	slab []eventRec
	free []int32 // reusable slab slots

	// wheel[i] holds the events of the window's times t with
	// (t>>wheelShift)&wheelMask == i, unsorted except for the open bucket
	// wheel[cursor], which is sorted and consumed from pos. Pushes into the
	// open bucket go to late instead.
	wheel       [wheelBuckets][]item
	cursor      int
	cursorStart int64 // the open bucket covers [cursorStart, cursorStart+bucketWidth)
	wheelEnd    int64 // exclusive end of the window
	pos         int
	late        itemHeap
	wheelCount  int    // events in buckets and late
	sortBuf     []item // scratch for sortRun

	overflow itemHeap // events outside [cursorStart, wheelEnd) when pushed

	n int // total queued events

	// Pressure telemetry (pressure.go): always collected — a few integer
	// operations per push keep the cost in the noise, and having the
	// counters unconditionally live means /snapshot and the oo_sched_*
	// metrics never need a flag flip to explain a slow run.
	inlinePushes   uint64 // appends to an unopened bucket
	spillPushes    uint64 // pushes into the open bucket's heap
	overflowPushes uint64 // pushes into the overflow heap
	resorts        uint64 // buckets sorted when the cursor opened them
	maxWheel       int    // high-water wheelCount
	maxOverflow    int    // high-water overflow residency
}

func satAdd(a, b int64) int64 {
	if b > 0 && a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// anchor re-bases the window so t falls in the open bucket. Only legal
// while no bucket holds events (bucket indexes would alias otherwise).
func (s *scheduler) anchor(t int64) {
	s.wheel[s.cursor] = s.wheel[s.cursor][:0]
	s.pos = 0
	s.cursor = int(t>>wheelShift) & wheelMask
	s.cursorStart = t >> wheelShift << wheelShift
	s.wheelEnd = satAdd(s.cursorStart, wheelSpan)
}

// push enqueues an event at time t with scheduling order seq.
func (s *scheduler) push(t int64, seq uint64, rec eventRec) {
	var slot int32
	if k := len(s.free); k > 0 {
		slot = s.free[k-1]
		s.free = s.free[:k-1]
	} else {
		slot = int32(len(s.slab))
		s.slab = append(s.slab, eventRec{})
	}
	s.slab[slot] = rec
	it := item{t: t, seq: seq, slot: slot}
	if s.n == 0 {
		s.anchor(t)
	}
	s.n++
	if t < s.cursorStart || t >= s.wheelEnd {
		// Far future — or, rarely, between "now" and a window that moved
		// ahead of it. Both are correct here: every pop compares the
		// overflow top.
		s.overflowPushes++
		s.overflow.push(it)
		s.maxOverflow = max(s.maxOverflow, len(s.overflow))
		return
	}
	if i := int(t>>wheelShift) & wheelMask; i != s.cursor {
		s.inlinePushes++
		s.wheel[i] = append(s.wheel[i], it)
	} else {
		s.spillPushes++
		s.late.push(it)
	}
	s.wheelCount++
	s.maxWheel = max(s.maxWheel, s.wheelCount)
}

// Where peek found the earliest event.
const (
	fromRun      = iota // the open bucket's sorted run
	fromLate            // the open bucket's heap
	fromOverflow        // the overflow heap
)

// peek returns the earliest queued event and where it is held, opening
// buckets as the cursor passes empty ones. Requires n > 0.
func (s *scheduler) peek() (item, int) {
	for s.pos == len(s.wheel[s.cursor]) && len(s.late) == 0 {
		if s.wheelCount == 0 {
			// Only overflow events remain: re-base the window at the
			// earliest so the events its handler schedules land in
			// buckets again.
			s.anchor(s.overflow[0].t)
			break
		}
		if len(s.overflow) > 0 && s.overflow[0].t <= s.cursorStart+(bucketWidth-1) {
			break // the overflow top falls before the next bucket
		}
		s.advance()
	}
	var it item
	src := -1
	if run := s.wheel[s.cursor]; s.pos < len(run) {
		it, src = run[s.pos], fromRun
	}
	if len(s.late) > 0 && (src < 0 || itemLess(s.late[0], it)) {
		it, src = s.late[0], fromLate
	}
	if len(s.overflow) > 0 && (src < 0 || itemLess(s.overflow[0], it)) {
		it, src = s.overflow[0], fromOverflow
	}
	return it, src
}

// advance closes the open bucket and opens the next, sorting it. Only
// called while the open bucket is exhausted and another bucket holds an
// event, so cursorStart cannot pass MaxInt64.
func (s *scheduler) advance() {
	s.wheel[s.cursor] = s.wheel[s.cursor][:0]
	s.pos = 0
	s.cursor = (s.cursor + 1) & wheelMask
	s.cursorStart += bucketWidth
	s.wheelEnd = satAdd(s.wheelEnd, bucketWidth)
	if run := s.wheel[s.cursor]; len(run) > 1 {
		s.sortRun(run)
		s.resorts++
	}
}

// sortRun sorts a bucket by (t, seq). Its items differ only in the low
// wheelShift bits of t, and appends arrive in increasing seq, so a stable
// counting sort on those bits yields (t, seq) order without the
// data-dependent branches a comparison sort mispredicts. Only the simdebug
// perturbation harness, which swaps two sequence numbers, appends out of
// seq order; an insertion pass restores the order there.
func (s *scheduler) sortRun(run []item) {
	var next [bucketWidth]int32
	for _, it := range run {
		next[it.t&(bucketWidth-1)]++
	}
	var sum int32
	for k, c := range next {
		next[k] = sum
		sum += c
	}
	s.sortBuf = append(s.sortBuf[:0], run...)
	for _, it := range s.sortBuf {
		k := it.t & (bucketWidth - 1)
		run[next[k]] = it
		next[k]++
	}
	if simDebug {
		for i := 1; i < len(run); i++ {
			for j := i; j > 0 && itemLess(run[j], run[j-1]); j-- {
				run[j], run[j-1] = run[j-1], run[j]
			}
		}
	}
}

// pop removes the event peek found in src and frees its slab slot. The
// sequence number rides along so dispatch (and the determinism auditor's
// digest) sees the full (t, seq) identity of the event it executes.
func (s *scheduler) pop(src int) (t int64, seq uint64, rec eventRec) {
	var it item
	switch src {
	case fromRun:
		it = s.wheel[s.cursor][s.pos]
		s.pos++
		s.wheelCount--
	case fromLate:
		it = s.late.pop()
		s.wheelCount--
	default:
		it = s.overflow.pop()
	}
	s.n--
	r := &s.slab[it.slot]
	rec = *r
	*r = eventRec{} // drop closure/operand references; the slot is free for reuse
	s.free = append(s.free, it.slot)
	return it.t, it.seq, rec
}

// itemHeap is a 4-ary min-heap of items ordered by (t, seq). Values are
// stored inline (no pointers, no interface boxing) and the backing array
// is retained across fill/drain cycles, so steady-state push/pop performs
// no allocations. 4-ary trades slightly more comparisons per level for
// half the depth and better cache behavior than binary.
type itemHeap []item

func (h *itemHeap) push(it item) {
	s := append(*h, it)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !itemLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*h = s
}

func (h *itemHeap) pop() item {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if itemLess(s[j], s[m]) {
				m = j
			}
		}
		if !itemLess(s[m], s[i]) {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}
