package sim

import (
	"math"
	"slices"
)

// This file is the engine's event store: a calendar-queue timing wheel for
// near-future events (the overwhelmingly common case — per-slice rotations,
// link serialization, pacing ticks) backed by an overflow 4-ary heap for
// far-future ones, with event payloads (handler closure + profiling class)
// kept in a slab with a free list. The structure deliberately mirrors the
// paper's §5 calendar queues: the wheel buckets are "slices" of real time
// and the cursor is the rotation. Steady-state scheduling performs zero
// heap allocations — every backing array (buckets, overflow, slab, free
// list) is reused across events.
//
// Bucket storage is two-level: each bucket holds a small sorted run of
// items inline in the wheel array itself, spilling deeper buckets to a
// per-bucket 4-ary heap. The hot workload is a self-sustaining cascade —
// each handler schedules its successors a few hundred ns out, so nearly
// all traffic flows through the cursor bucket — and the inline region
// keeps that traffic in one or two cache lines per bucket instead of a
// heap array per bucket that goes cold between touches.
//
// Determinism: the scheduler realizes the exact (t, seq) total order the
// seed engine's binary heap produced. pop/peek select the (t, seq)-minimum
// across inline items and spill heap; the overflow heap uses the same key;
// the run loop always compares the earliest wheel candidate against the
// overflow top, so no structural migration can reorder events.

// Wheel geometry. Bucket width 512 ns and 1024 buckets give a ~524 µs
// horizon: slice rotations (tens to hundreds of µs), wire propagation, and
// serialization completions all land in the wheel, while RTO checks and
// long timers overflow to the heap. The narrow bucket keeps per-bucket
// resident sets near the inline capacity at line-rate event densities
// (one event every few tens of ns), so the spill heaps stay shallow;
// coarser widths (4096 ns) measured slower end to end because buckets
// ballooned past the inline region into the heaps.
const (
	wheelShift   = 9 // log2 of bucket width in ns
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

// bucketInline is the per-bucket inline capacity. The hot pattern is a
// self-sustaining cascade around the cursor — pop an event, its handler
// schedules its successors a few hundred ns out — with per-bucket resident
// sets of a few items at the 512 ns bucket width, so eight inline slots
// absorb nearly all traffic; only bursts (timer clusters parked on one
// instant) touch the spill heaps.
const bucketInline = 8

// bucket is one calendar slot: up to bucketInline items held in the wheel
// array itself, sorted descending by (t, seq) so the minimum is the last
// inline element and pop is a counter decrement; deeper buckets spill to a
// per-bucket 4-ary heap. For the resident sets this workload produces, the
// sorted array beats a heap: pops are free, pushes are a ≤8-element scan
// plus a ≤112-byte memmove, and everything stays in L1.
type bucket struct {
	inline [bucketInline]item
	ni     int32
	spill  bucketHeap
}

func (b *bucket) empty() bool { return b.ni == 0 && len(b.spill) == 0 }

func (b *bucket) size() int { return int(b.ni) + len(b.spill) }

func (b *bucket) push(it item) {
	if b.ni == bucketInline {
		b.spill.push(it)
		return
	}
	// Insert keeping descending (t, seq) order: find the first resident
	// smaller than it, shift the tail down one.
	j := int32(0)
	for j < b.ni && !itemLess(b.inline[j], it) {
		j++
	}
	copy(b.inline[j+1:b.ni+1], b.inline[j:b.ni])
	b.inline[j] = it
	b.ni++
}

// peek returns the (t, seq)-minimum item without removing it. Requires a
// non-empty bucket. Spilled items are not ordered relative to inline ones,
// so the inline minimum is always compared against the spill top.
func (b *bucket) peek() item {
	if b.ni == 0 {
		return b.spill[0]
	}
	m := b.inline[b.ni-1]
	if len(b.spill) > 0 && itemLess(b.spill[0], m) {
		return b.spill[0]
	}
	return m
}

// pop removes and returns the (t, seq)-minimum item. Requires a non-empty
// bucket. The selection mirrors peek exactly.
func (b *bucket) pop() item {
	if b.ni == 0 {
		return b.spill.pop()
	}
	m := b.inline[b.ni-1]
	if len(b.spill) > 0 && itemLess(b.spill[0], m) {
		return b.spill.pop()
	}
	b.ni--
	return m
}

// scheduler is the hybrid calendar-queue/heap event store.
type scheduler struct {
	slab []eventRec
	free []int32 // reusable slab slots

	wheel       [wheelBuckets]bucket
	wheelCount  int // events resident in the wheel
	cursor      int // bucket covering [cursorStart, cursorStart+bucketWidth)
	cursorStart int64
	wheelEnd    int64 // exclusive horizon of the wheel window

	overflow bucketHeap // events outside [cursorStart, wheelEnd)

	// Drain buffer for batched dispatch (Engine.RunUntil): a deep front
	// bucket's events, sorted ascending once and consumed front-to-back.
	// Consuming a sorted array replaces a heap sift per pop with an index
	// increment. Events a handler pushes into the bucket mid-drain go
	// through the bucket as usual (it is empty at drain start) and the run
	// loop merges the two sources by (t, seq).
	drainBuf []item
	drainPos int

	// anchorGen counts window re-anchors. A batch drain caches it: if a
	// re-anchor happens mid-batch (only possible after the queue fully
	// drained inside a handler), bucket indexes alias to new time windows
	// and the batch must fall back to min() rather than keep popping from
	// its — now unrelated — bucket.
	anchorGen uint64

	n int // total queued events

	// Pressure telemetry (pressure.go): always collected — a handful of
	// integer operations per push keeps the cost in the noise, and having
	// the counters unconditionally live means `ooctl engine pressure` and
	// /snapshot never need a flag flip to explain a slow run.
	inlinePushes   uint64 // pushes landing in a bucket's inline array
	spillPushes    uint64 // pushes landing in a bucket's spill heap
	overflowPushes uint64 // pushes landing in the overflow heap
	migrations     uint64 // overflow→wheel migrations (drain)
	resorts        uint64 // drain-buffer sorts (beginDrain deep path)
	occ            [occBuckets]uint64
	maxWheel       int // high-water wheel residency
	maxOverflow    int // high-water overflow residency
}

func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// anchor re-bases the wheel window so t falls in the cursor bucket. Only
// legal when the wheel is empty (bucket indices would alias otherwise).
func (s *scheduler) anchor(t int64) {
	s.cursor = int(t>>wheelShift) & wheelMask
	s.cursorStart = (t >> wheelShift) << wheelShift
	s.wheelEnd = satAdd(s.cursorStart, wheelSpan)
	s.anchorGen++
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
	if t >= s.cursorStart && t < s.wheelEnd {
		b := &s.wheel[int(t>>wheelShift)&wheelMask]
		if b.ni == bucketInline {
			s.spillPushes++
		} else {
			s.inlinePushes++
		}
		b.push(it)
		s.occ[occIndex(b.size())]++
		s.wheelCount++
		if s.wheelCount > s.maxWheel {
			s.maxWheel = s.wheelCount
		}
	} else {
		// Far future — or, rarely, between "now" and a wheel window that
		// jumped ahead (idle engine at a deadline with a distant timer
		// pending). Both cases are correct here: the run loop always
		// compares the overflow top against the wheel candidate.
		s.overflowPushes++
		s.overflow.push(it)
		if len(s.overflow) > s.maxOverflow {
			s.maxOverflow = len(s.overflow)
		}
	}
	s.n++
}

// min returns the bucket holding the globally earliest event, advancing
// the cursor past empty buckets and migrating overflow events that entered
// the wheel window — or nil when the overflow heap holds the globally
// earliest event. Requires n > 0.
func (s *scheduler) min() *bucket {
	if s.wheelCount == 0 {
		// Re-base the wheel at the overflow's earliest event so upcoming
		// inserts and migrations use the buckets again.
		s.anchor(s.overflow[0].t)
		s.drain()
		if s.wheelCount == 0 {
			// Saturated horizon (times near MaxInt64): serve from overflow.
			return nil
		}
	}
	for s.wheel[s.cursor].empty() {
		s.advance()
	}
	b := &s.wheel[s.cursor]
	if len(s.overflow) > 0 && itemLess(s.overflow[0], b.peek()) {
		return nil
	}
	return b
}

// recycle frees the popped item's slab slot and returns its payload. The
// sequence number rides along so dispatch (and the determinism auditor's
// digest) sees the full (t, seq) identity of the event it executes.
func (s *scheduler) recycle(it item) (t int64, seq uint64, rec eventRec) {
	s.n--
	r := &s.slab[it.slot]
	rec = *r
	*r = eventRec{} // drop closure/operand references; the slot is free for reuse
	s.free = append(s.free, it.slot)
	return it.t, it.seq, rec
}

// takeBucket pops the earliest event from wheel bucket b.
func (s *scheduler) takeBucket(b *bucket) (t int64, seq uint64, rec eventRec) {
	it := b.pop()
	s.wheelCount--
	return s.recycle(it)
}

// takeOverflow pops the earliest event from the overflow heap.
func (s *scheduler) takeOverflow() (t int64, seq uint64, rec eventRec) {
	return s.recycle(s.overflow.pop())
}

// drainSortMin is the bucket depth at which batched dispatch switches from
// popping the bucket to sorting it once and consuming the sorted run.
// Shallow buckets (the common case at small scale — standing event
// populations of tens) pop faster than they sort; deep buckets (large
// fan-out topologies parking hundreds of contemporaneous events per
// bucket) amortize one sort against a heap sift per event. A variable
// (not a const) so tests can force both regimes and assert dispatch order
// and profile attribution are batch-size invariant.
var drainSortMin = 16

// beginDrain prepares bucket b for a batched drain. Deep buckets move into
// the drain buffer, sorted ascending by (t, seq), leaving b empty (spill
// capacity is retained for mid-drain pushes); shallow buckets stay put —
// the run loop then serves them min-first, which is the same order.
// Buffered events stay part of the wheel for bookkeeping (wheelCount, n)
// until takeDrained consumes them.
func (s *scheduler) beginDrain(b *bucket) {
	s.drainPos = 0
	if b.size() < drainSortMin {
		s.drainBuf = s.drainBuf[:0]
		return
	}
	s.drainBuf = append(s.drainBuf[:0], b.inline[:b.ni]...)
	s.drainBuf = append(s.drainBuf, b.spill...)
	b.ni = 0
	b.spill = b.spill[:0]
	s.resorts++
	slices.SortFunc(s.drainBuf, func(a, b item) int {
		if itemLess(a, b) {
			return -1
		}
		return 1
	})
}

// takeDrained consumes the drain buffer's front event and recycles its
// slab slot — the sorted-array counterpart of takeBucket.
func (s *scheduler) takeDrained() (t int64, seq uint64, rec eventRec) {
	it := s.drainBuf[s.drainPos]
	s.drainPos++
	s.wheelCount--
	return s.recycle(it)
}

// endDrain returns unconsumed drained events to bucket b (deadline, halt,
// or interrupt ended the batch early). A fully consumed buffer is a no-op.
// Never called across a re-anchor: the buffer is provably empty by then
// (re-anchoring requires the queue — which counts buffered events — to
// have drained to zero).
func (s *scheduler) endDrain(b *bucket) {
	for _, it := range s.drainBuf[s.drainPos:] {
		b.push(it)
	}
	s.drainBuf = s.drainBuf[:0]
	s.drainPos = 0
}

// advance rotates the cursor to the next bucket, extending the horizon by
// one bucket width and pulling newly covered overflow events in.
func (s *scheduler) advance() {
	s.cursor = (s.cursor + 1) & wheelMask
	s.cursorStart = satAdd(s.cursorStart, bucketWidth)
	s.wheelEnd = satAdd(s.cursorStart, wheelSpan)
	s.drain()
}

// drain migrates overflow events that now fall inside the wheel window.
// An overflow top behind the window (possible after the window jumped
// ahead) blocks migration; the run loop serves it directly via comparison.
func (s *scheduler) drain() {
	for len(s.overflow) > 0 {
		t := s.overflow[0].t
		if t < s.cursorStart || t >= s.wheelEnd {
			return
		}
		it := s.overflow.pop()
		s.wheel[int(t>>wheelShift)&wheelMask].push(it)
		s.migrations++
		s.wheelCount++
		if s.wheelCount > s.maxWheel {
			s.maxWheel = s.wheelCount
		}
	}
}

// bucketHeap is a 4-ary min-heap of items ordered by (t, seq). Values are
// stored inline (no pointers, no interface boxing) and the backing array
// is retained across fill/drain cycles, so steady-state push/pop performs
// no allocations. 4-ary trades slightly more comparisons per level for
// half the depth and better cache behavior than binary. Used for bucket
// spill storage and the overflow heap.
type bucketHeap []item

func (h *bucketHeap) push(it item) {
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

func (h *bucketHeap) pop() item {
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
