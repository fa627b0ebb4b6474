package sim

import "math/bits"

// This file is the engine's event store: a calendar queue of FIFO lists
// threaded through a slab of event records for the near future, and an
// overflow 4-ary heap for everything else. Steady-state scheduling
// allocates nothing: the lists live in the records, and the slab, its free
// list and the heap reuse their arrays.
//
// A push into a bucket the cursor has not reached links its record at the
// bucket's tail, so the list stays in push order, which is seq order. When
// the cursor opens a bucket, one walk of its list files the records into
// 128 per-nanosecond lists tracked by an occupancy bitmap, and a pop takes
// the head of the lowest occupied nanosecond. A push into the open bucket
// links at its nanosecond's tail: its seq is the largest so far.
//
// Determinism: the scheduler realizes the exact (t, seq) total order a
// binary heap produces. Every pop takes the smaller of the open bucket's
// earliest list head and the overflow top; every other bucket holds
// strictly later times. Overflow events never migrate into buckets, so no
// structural move can reorder them.

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

// item is one overflow event's sort key plus the slab slot of its record.
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

// funcAction schedules a closure (At/After/Every) as an Action, so every
// event record holds one Action and dispatch has one call shape. A func
// value is pointer-shaped: the conversion to Action allocates nothing.
type funcAction func()

func (f funcAction) RunEvent(any, int64) { f() }

// eventRec is the slab-resident record of one queued event, 64 bytes: an
// action with its operands (nil and 0 for closures) and its handler class,
// the event's (t, seq) key, and the slot of the next record in its list.
type eventRec struct {
	act   Action
	arg   any
	v     int64
	t     int64
	seq   uint64
	next  int32
	class Class
}

// list is a FIFO of slab records threaded through eventRec.next. It holds
// records only while its occupancy bit is set; the tail's next is stale.
type list struct{ head, tail int32 }

// scheduler is the calendar-queue/overflow-heap event store.
type scheduler struct {
	slab []eventRec
	free []int32 // reusable slab slots

	// wheel[i] lists the events of the window's times t with
	// (t>>wheelShift)&wheelMask == i, except for the open bucket
	// wheel[cursor], whose events are filed by nanosecond in ns.
	wheel       [wheelBuckets]list
	wheelOcc    [wheelBuckets / 64]uint64 // bit i: wheel[i] holds events
	ns          [bucketWidth]list         // ns[k]: time cursorStart+k
	nsOcc       [bucketWidth / 64]uint64  // bit k: ns[k] holds events
	cursor      int
	cursorStart int64 // the open bucket covers [cursorStart, cursorStart+bucketWidth)
	wheelEnd    int64 // exclusive end of the window
	wheelCount  int   // events in the calendar's lists

	overflow itemHeap // events outside [cursorStart, wheelEnd) when pushed

	n int // total queued events

	// Pressure telemetry (pressure.go), always collected: a few integer
	// operations per push, so /snapshot needs no flag to explain a run.
	inlinePushes   uint64 // links into an unopened bucket
	spillPushes    uint64 // links into the open bucket
	overflowPushes uint64 // pushes into the overflow heap
	resorts        uint64 // buckets of two or more events filed when opened
	maxWheel       int    // high-water wheelCount
	maxOverflow    int    // high-water overflow residency
}

// anchor re-bases the window so t falls in the open bucket. Only legal
// while no list holds events (bucket indexes would alias otherwise).
func (s *scheduler) anchor(t int64) {
	s.cursor = int(t>>wheelShift) & wheelMask
	s.cursorStart = t >> wheelShift << wheelShift
	s.wheelEnd = satAdd(s.cursorStart, wheelSpan)
}

// push enqueues an event at time t with scheduling order seq and returns
// its slab record, which the caller fills in place. The pointer is valid
// until the next push, which may grow the slab.
func (s *scheduler) push(t int64, seq uint64) *eventRec {
	var slot int32
	if k := len(s.free); k > 0 {
		slot = s.free[k-1]
		s.free = s.free[:k-1]
	} else {
		slot = int32(len(s.slab))
		s.slab = append(s.slab, eventRec{})
	}
	r := &s.slab[slot]
	r.t, r.seq = t, seq
	if s.n == 0 {
		s.anchor(t)
	}
	s.n++
	if t < s.cursorStart || t >= s.wheelEnd {
		// Far future — or, rarely, between "now" and a window that moved
		// ahead of it. Both are correct: every pop compares the top.
		s.overflowPushes++
		s.overflow.push(item{t: t, seq: seq, slot: slot})
		s.maxOverflow = max(s.maxOverflow, len(s.overflow))
		return r
	}
	if i := int(t>>wheelShift) & wheelMask; i != s.cursor {
		s.inlinePushes++
		s.linkTail(&s.wheel[i], &s.wheelOcc[i>>6], 1<<(i&63), slot)
	} else {
		s.spillPushes++
		s.file(slot)
	}
	s.wheelCount++
	s.maxWheel = max(s.maxWheel, s.wheelCount)
	return r
}

// linkTail appends slot to l, whose occupancy bit is bit of *occ.
func (s *scheduler) linkTail(l *list, occ *uint64, bit uint64, slot int32) {
	if *occ&bit == 0 {
		*occ |= bit
		l.head = slot
	} else {
		s.slab[l.tail].next = slot
	}
	l.tail = slot
}

// file links an open-bucket record into its nanosecond's list. Records
// arrive in seq order (a bucket's walk, then pushes into the open bucket),
// except under the simdebug perturbation harness, which swaps two sequence
// numbers; there the record is inserted ahead of the first larger seq.
func (s *scheduler) file(slot int32) {
	r := &s.slab[slot]
	k := int(r.t & (bucketWidth - 1))
	l, occ, bit := &s.ns[k], &s.nsOcc[k>>6], uint64(1)<<(k&63)
	if !simDebug || *occ&bit == 0 || r.seq > s.slab[l.tail].seq {
		s.linkTail(l, occ, bit, slot)
		return
	}
	p := &l.head // the tail's seq is larger, so the walk stops before it
	for s.slab[*p].seq < r.seq {
		p = &s.slab[*p].next
	}
	r.next, *p = *p, slot
}

const fromOverflow = -1 // peek's source for the overflow heap; else a nanosecond

// peek returns the time of the earliest queued event and where it is
// held, opening buckets as the cursor passes empty ones. Requires n > 0.
func (s *scheduler) peek() (int64, int) {
	for s.nsOcc[0]|s.nsOcc[1] == 0 {
		if s.wheelCount == 0 {
			// Only overflow events remain: re-base the window at the
			// earliest, so its handler's pushes land in buckets again.
			s.anchor(s.overflow[0].t)
			return s.overflow[0].t, fromOverflow
		}
		if len(s.overflow) > 0 && s.overflow[0].t <= s.cursorStart+(bucketWidth-1) {
			return s.overflow[0].t, fromOverflow // before the next bucket
		}
		s.advance()
	}
	k := bits.TrailingZeros64(s.nsOcc[0])
	if k == 64 {
		k += bits.TrailingZeros64(s.nsOcc[1])
	}
	t := s.cursorStart + int64(k)
	if len(s.overflow) > 0 && itemLess(s.overflow[0], item{t: t, seq: s.slab[s.ns[k].head].seq}) {
		return s.overflow[0].t, fromOverflow
	}
	return t, k
}

// advance closes the exhausted open bucket and opens the next, filing its
// list by nanosecond. Only called while another bucket holds an event, so
// cursorStart cannot pass MaxInt64.
func (s *scheduler) advance() {
	s.cursor = (s.cursor + 1) & wheelMask
	s.cursorStart += bucketWidth
	s.wheelEnd = satAdd(s.wheelEnd, bucketWidth)
	occ, bit := &s.wheelOcc[s.cursor>>6], uint64(1)<<(s.cursor&63)
	if *occ&bit == 0 {
		return
	}
	*occ &^= bit
	b := s.wheel[s.cursor]
	if b.head != b.tail {
		s.resorts++
	}
	for slot := b.head; ; {
		next := s.slab[slot].next
		s.file(slot)
		if slot == b.tail {
			return
		}
		slot = next
	}
}

// pop removes the event peek found in src and returns its slab record,
// whose slot is already back on the free list: the caller reads the record
// and clears it before anything pushes again.
func (s *scheduler) pop(src int) *eventRec {
	var slot int32
	if src == fromOverflow {
		slot = s.overflow.pop().slot
	} else {
		l := &s.ns[src]
		slot = l.head
		if slot == l.tail {
			s.nsOcc[src>>6] &^= 1 << (src & 63)
		} else {
			l.head = s.slab[slot].next
		}
		s.wheelCount--
	}
	s.n--
	s.free = append(s.free, slot)
	return &s.slab[slot]
}

// itemHeap is a 4-ary min-heap of items ordered by (t, seq), stored inline
// in an array retained across fill/drain cycles. 4-ary trades slightly more
// comparisons per level for half the depth and better cache behavior.
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
