package sim

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// These tests pin down the calendar-queue scheduler's edge behavior: the
// RunUntil fence sitting exactly on an event, a clock that never moves
// backwards, halting with same-instant events still queued, periodic
// timers whose interval exceeds the calendar window, saturated far-future
// timestamps, the zero-allocation guarantee, and a differential check
// against the straightforward container/heap scheduler the seed engine
// used.

// TestRunUntilDeadlineOnEvent: an event whose timestamp equals the RunUntil
// deadline executes (the fence is inclusive), and an event one nanosecond
// later does not.
func TestRunUntilDeadlineOnEvent(t *testing.T) {
	e := New()
	var fired []int64
	e.At(100, func() { fired = append(fired, e.Now()) })
	e.At(101, func() { fired = append(fired, e.Now()) })
	e.RunUntil(100)
	if len(fired) != 1 || fired[0] != 100 {
		t.Fatalf("fired = %v, want exactly the t=100 event", fired)
	}
	if e.Now() != 100 {
		t.Fatalf("now = %d, want 100", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.RunUntil(101)
	if len(fired) != 2 || fired[1] != 101 {
		t.Fatalf("fired after resume = %v", fired)
	}
}

// TestRunUntilNeverMovesClockBackwards: a deadline behind the clock runs
// nothing and leaves the clock alone, and RunFor saturates instead of
// wrapping to a negative deadline.
func TestRunUntilNeverMovesClockBackwards(t *testing.T) {
	e := New()
	fired := false
	e.At(1000, func() { fired = true })
	e.RunUntil(500)
	e.RunUntil(200)
	if e.Now() != 500 {
		t.Fatalf("RunUntil(200) after RunUntil(500): now = %d, want 500", e.Now())
	}
	e.RunFor(-300)
	if e.Now() != 500 {
		t.Fatalf("RunFor(-300) at 500: now = %d, want 500", e.Now())
	}
	e.RunFor(time.Duration(math.MaxInt64))
	if !fired || e.Now() != 1000 || e.Pending() != 0 {
		t.Fatalf("RunFor(MaxInt64) at 500: fired=%v now=%d pending=%d, want the t=1000 event run",
			fired, e.Now(), e.Pending())
	}
}

// TestHaltWithSameInstantPending: Halt inside a handler stops dispatch
// immediately, leaving later same-instant events queued; resuming runs them
// at the same virtual time in the original order.
func TestHaltWithSameInstantPending(t *testing.T) {
	e := New()
	var got []int
	e.At(5, func() { got = append(got, 1); e.Halt() })
	e.At(5, func() { got = append(got, 2) })
	e.At(5, func() { got = append(got, 3) })
	e.Run()
	if len(got) != 1 {
		t.Fatalf("ran %v before halt, want just the first", got)
	}
	if e.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", e.Pending())
	}
	if e.Now() != 5 {
		t.Fatalf("now = %d, want 5", e.Now())
	}
	e.Run()
	if len(got) != 3 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("resume order = %v, want [1 2 3]", got)
	}
	if e.Now() != 5 {
		t.Fatalf("now after resume = %d, want 5 (same instant)", e.Now())
	}
}

// TestEveryAcrossWheelBoundary: a periodic timer whose interval exceeds the
// wheel span lives in the overflow heap and must still tick exactly on
// schedule while the window moves past it.
func TestEveryAcrossWheelBoundary(t *testing.T) {
	if interval := int64(5 * wheelSpan / 2); interval <= wheelSpan {
		t.Fatal("test interval must exceed the wheel span")
	}
	e := New()
	interval := int64(5 * wheelSpan / 2) // 2.5 horizons
	var ticks []int64
	e.Every(0, interval, func() bool {
		ticks = append(ticks, e.Now())
		return len(ticks) < 8
	})
	// Interleave short-range traffic so the wheel window keeps advancing.
	e.Every(1, bucketWidth/2, func() bool { return e.Now() < 10*interval })
	e.Run()
	if len(ticks) != 8 {
		t.Fatalf("ticks = %d, want 8", len(ticks))
	}
	for i, at := range ticks {
		if want := int64(i) * interval; at != want {
			t.Fatalf("tick %d at %d, want %d", i, at, want)
		}
	}
}

// TestFarFutureTimestamps: timestamps adjacent to MaxInt64 must neither
// overflow wheel arithmetic nor stall; the engine serves them from the
// overflow heap in order.
func TestFarFutureTimestamps(t *testing.T) {
	e := New()
	var got []int64
	e.At(math.MaxInt64, func() { got = append(got, e.Now()) })
	e.At(math.MaxInt64-1, func() { got = append(got, e.Now()) })
	e.At(10, func() { got = append(got, e.Now()) })
	e.Run()
	want := []int64{10, math.MaxInt64 - 1, math.MaxInt64}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("got = %v, want %v", got, want)
	}
}

// TestWindowJumpThenNearEvent: after the window anchors at a far-future
// event, the events its handler schedules — same instant, next tick, and
// beyond the window again — must not be lost or reordered.
func TestWindowJumpThenNearEvent(t *testing.T) {
	e := New()
	var got []int64
	record := func() { got = append(got, e.Now()) }
	e.At(2*wheelSpan, func() {
		record()
		// Anchor is now near 2*wheelSpan; schedule a same-instant and a
		// next-tick event plus one far ahead again.
		e.At(e.Now(), record)
		e.At(e.Now()+1, record)
		e.At(e.Now()+10*wheelSpan, record)
	})
	e.RunUntil(2 * wheelSpan)
	e.Run()
	want := []int64{2 * wheelSpan, 2 * wheelSpan, 2*wheelSpan + 1, 12 * wheelSpan}
	if len(got) != 4 {
		t.Fatalf("got %d events: %v", len(got), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got = %v, want %v", got, want)
		}
	}
}

// TestScheduleZeroAllocSteadyState: once the slab and free list are warm,
// the schedule → dispatch cycle must not allocate.
func TestScheduleZeroAllocSteadyState(t *testing.T) {
	e := New()
	act := nopAction{}
	for i := 0; i < 1024; i++ {
		e.AtEvent(int64(i), ClassOther, act, nil, 0)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.AtEvent(e.Now()+10, ClassOther, act, nil, 0)
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state schedule+run allocates %.1f/op, want 0", allocs)
	}
}

type nopAction struct{}

func (nopAction) RunEvent(any, int64) {}

// --- differential test against a container/heap reference ---------------

// refEvent / refEngine reimplement the seed engine: a binary heap of
// (t, seq) pointers via container/heap, the past-time clamp, Halt, and a
// RunUntil whose clock moves to the deadline but never backwards. The
// calendar queue must reproduce its execution order and clock exactly.
type refEvent struct {
	t   int64
	seq uint64
	fn  func()
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

type refEngine struct {
	q      refQueue
	now    int64
	seq    uint64
	halted bool
}

func (r *refEngine) Now() int64 { return r.now }

func (r *refEngine) Halt() { r.halted = true }

func (r *refEngine) At(t int64, fn func()) {
	r.seq++
	heap.Push(&r.q, &refEvent{t: max(t, r.now), seq: r.seq, fn: fn})
}

func (r *refEngine) RunUntil(deadline int64) {
	r.halted = false
	for r.q.Len() > 0 && r.q[0].t <= deadline && !r.halted {
		ev := heap.Pop(&r.q).(*refEvent)
		r.now = ev.t
		ev.fn()
	}
	if !r.halted && deadline != math.MaxInt64 && deadline > r.now {
		r.now = deadline
	}
}

// diffQueue is what a differential input drives: the engine or the
// reference.
type diffQueue interface {
	Now() int64
	At(t int64, fn func())
	RunUntil(deadline int64)
	Halt()
}

// dispatched is one executed event: its id and the clock it ran at.
type dispatched struct {
	id int
	t  int64
}

// TestDifferentialVsHeap drives the calendar-queue engine and the reference
// heap through identical inputs and asserts identical execution order and
// clocks. Each input is a function that touches its queue only through
// diffQueue and draws from its own seeded stream, so both sides see the
// same calls for as long as their orders agree.
func TestDifferentialVsHeap(t *testing.T) {
	type input struct {
		name string
		run  func(diffQueue) []dispatched
	}
	var inputs []input
	for trial := 0; trial < 20; trial++ {
		inputs = append(inputs, input{fmt.Sprintf("random/%d", trial), randomSchedule(int64(1000 + trial))})
	}
	for _, seed := range []int64{7, 8} {
		inputs = append(inputs, input{fmt.Sprintf("cascade/%d", seed), cascadeChunks(seed)})
	}
	for _, sh := range listShapes {
		inputs = append(inputs, input{sh.name, sh.run})
	}
	for _, in := range inputs {
		got := in.run(New())
		want := in.run(&refEngine{})
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("%s: execution diverges at %d: got event %d at t=%d, reference %d at t=%d",
					in.name, i, got[i].id, got[i].t, want[i].id, want[i].t)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: executed %d events, reference executed %d", in.name, len(got), len(want))
		}
	}
}

// randomSchedule is a randomized root schedule — bursty near-future times,
// same-instant clusters, overflow-range timers, bucket-boundary neighbors —
// whose roots schedule followups (past ones clamped), run to completion.
func randomSchedule(seed int64) func(diffQueue) []dispatched {
	return func(q diffQueue) []dispatched {
		rng := rand.New(rand.NewSource(seed))
		type spec struct {
			t         int64
			followups []int64 // deltas; negative = past (clamped)
		}
		n := 200 + rng.Intn(200)
		specs := make([]spec, n)
		for i := range specs {
			var tt int64
			switch rng.Intn(4) {
			case 0: // same-instant cluster
				tt = int64(rng.Intn(4)) * 64
			case 1: // near future, within the window
				tt = int64(rng.Intn(int(wheelSpan)))
			case 2: // overflow range
				tt = wheelSpan + int64(rng.Intn(int(wheelSpan*20)))
			default: // bucket-boundary adjacent
				tt = max(int64(rng.Intn(64))*bucketWidth+int64(rng.Intn(3))-1, 0)
			}
			s := spec{t: tt}
			for f := rng.Intn(3); f > 0; f-- {
				s.followups = append(s.followups, int64(rng.Intn(int(wheelSpan*3)))-bucketWidth)
			}
			specs[i] = s
		}
		var order []dispatched
		nextID := n
		var schedule func(id int, at int64, followups []int64)
		schedule = func(id int, at int64, followups []int64) {
			// Clamp here, like the engine's normal-build clamp, so
			// `-tags simdebug` builds don't panic on past followups.
			q.At(max(at, q.Now()), func() {
				order = append(order, dispatched{id, q.Now()})
				for _, d := range followups {
					fid := nextID
					nextID++
					schedule(fid, q.Now()+d, nil)
				}
			})
		}
		for i, s := range specs {
			schedule(i, s.t, s.followups)
		}
		q.RunUntil(math.MaxInt64)
		return order
	}
}

// cascadeDelay draws a follow-up delay from the mix measured on the
// simulator's benchmark workloads: ~13% under 8 ns (same-instant and
// pipeline hops), ~57% at 64–256 ns (serialization), ~29% at 600–700 ns
// (wire and fabric relay) and ~1.5% timers at 0.1–1.1 ms.
func cascadeDelay(rng *rand.Rand) int64 {
	switch r := rng.Intn(1000); {
	case r < 130:
		return int64(rng.Intn(8))
	case r < 700:
		return 64 + int64(rng.Intn(193))
	case r < 985:
		return 600 + int64(rng.Intn(101))
	default:
		return 100_000 + int64(rng.Intn(1_000_001))
	}
}

// cascadeChunks is a benchmark-shaped input: a self-sustaining cascade of
// ~150 near-term events in which every handler schedules one successor at
// a cascadeDelay (a timer successor also gets a near-term sibling, so
// timers accumulate the way RTO checks do), ~40k events in all. It runs
// through RunUntil in deadline chunks with top-level pushes between
// chunks, and one chunk in ten has a deadline behind the clock.
func cascadeChunks(seed int64) func(diffQueue) []dispatched {
	const total = 40_000
	return func(q diffQueue) []dispatched {
		rng := rand.New(rand.NewSource(seed))
		var order []dispatched
		nextID := 0
		var schedule func(at int64)
		schedule = func(at int64) {
			id := nextID
			nextID++
			q.At(max(at, q.Now()), func() {
				order = append(order, dispatched{id, q.Now()})
				if nextID >= total {
					return
				}
				d := cascadeDelay(rng)
				schedule(q.Now() + d)
				if d >= 100_000 {
					schedule(q.Now() + int64(rng.Intn(700)))
				}
			})
		}
		for i := 0; i < 150; i++ {
			schedule(int64(rng.Intn(1000)))
		}
		for nextID < total {
			deadline := q.Now() + 100 + int64(rng.Intn(2000))
			if rng.Intn(10) == 0 {
				deadline = q.Now() - 1 - int64(rng.Intn(2000))
			}
			q.RunUntil(deadline)
			for k := rng.Intn(4); k > 0; k-- {
				schedule(q.Now() + cascadeDelay(rng))
			}
		}
		q.RunUntil(math.MaxInt64)
		return order
	}
}

// script drives the hand-written shapes of listShapes: at schedules an
// event that records its id and clock and then runs then.
type script struct {
	q     diffQueue
	order []dispatched
	next  int
}

func (s *script) at(t int64, then func()) {
	id := s.next
	s.next++
	s.q.At(t, func() {
		s.order = append(s.order, dispatched{id, s.q.Now()})
		if then != nil {
			then()
		}
	})
}

// shape adapts a script to a differential input; the script runs its
// queue itself.
func shape(f func(s *script)) func(diffQueue) []dispatched {
	return func(q diffQueue) []dispatched {
		s := &script{q: q}
		f(s)
		return s.order
	}
}

// listShapes aim at the calendar's lists: the first and last nanosecond
// of a bucket, a handler pushing into its own nanosecond, overflow events
// inside the open bucket, a window re-anchored at overflow events, and a
// halt between two same-instant events.
var listShapes = []struct {
	name string
	run  func(diffQueue) []dispatched
}{
	{"edge-offsets", shape(func(s *script) {
		const b = 3 * bucketWidth // the first push opens [b, b+bucketWidth)
		s.at(b, func() {
			s.at(b+bucketWidth-1, nil) // offset 127 of the open bucket
			s.at(b, nil)               // offset 0: its own nanosecond
			s.at(b+bucketWidth, nil)   // offset 0 of the next bucket
			s.at(b+2*bucketWidth-1, nil)
		})
		s.at(b+bucketWidth-1, func() {
			s.at(b+bucketWidth-1, nil)
			s.at(b+bucketWidth, nil)
		})
		s.at(b+bucketWidth, func() {
			s.at(b+bucketWidth, nil)
			s.at(b+2*bucketWidth-1, nil)
			s.at(b+3*bucketWidth, nil)
		})
		s.at(b+2*bucketWidth-1, nil) // offset 127 of a bucket reached by its walk
		s.at(b, nil)
		s.q.RunUntil(math.MaxInt64)
	})},
	{"own-nanosecond", shape(func(s *script) {
		var chain func(left int) func()
		chain = func(left int) func() {
			return func() {
				if left > 0 {
					s.at(s.q.Now(), chain(left-1))
					s.at(s.q.Now(), nil)
				}
			}
		}
		s.at(0, chain(3)) // in the bucket the first push opens
		s.at(0, nil)
		s.at(500, chain(3)) // in a bucket opened later: through its walk
		s.at(500, nil)
		s.at(500, chain(2))
		s.at(bucketWidth-1, chain(2))
		s.q.RunUntil(math.MaxInt64)
	})},
	{"overflow-in-open-bucket", shape(func(s *script) {
		// The timers go to the overflow heap; once the t=0 event has run,
		// only they remain and the window re-anchors at T, so the events
		// T's handler schedules share the open bucket with overflow
		// events: one at T itself, one between two nanosecond lists and
		// one in the nanosecond of two list entries.
		const T = 2*wheelSpan + 50
		s.at(0, nil)
		s.at(T, func() {
			s.at(T, nil)
			s.at(T+5, nil)
			s.at(T+20, nil)
			s.at(T+20, nil)
		})
		s.at(T+10, func() { s.at(T+20, nil) })
		s.at(T, nil)
		s.at(T+20, func() { s.at(T+20, nil) })
		s.at(T+bucketWidth-1, nil)
		s.q.RunUntil(math.MaxInt64)
	})},
	{"reanchor-after-overflow", shape(func(s *script) {
		// Each timer finds only overflow events queued, re-anchors the
		// window at itself and fills buckets again; deadlines stop the
		// run between timers and inside a re-anchored window.
		var timer func(k int) func()
		timer = func(k int) func() {
			return func() {
				now := s.q.Now()
				s.at(now, nil)
				s.at(now+1, nil)
				s.at(now+bucketWidth, nil)
				s.at(now+wheelSpan-1, nil)
				if k > 0 {
					s.at(now+3*wheelSpan+int64(k), timer(k-1))
				}
			}
		}
		s.at(wheelSpan+7, timer(4))
		s.at(5*wheelSpan, timer(2))
		s.at(9*wheelSpan+bucketWidth-1, nil)
		s.q.RunUntil(wheelSpan + 8)
		s.at(s.q.Now()+1, nil) // behind the window the run left open
		s.q.RunUntil(4 * wheelSpan)
		s.q.RunUntil(math.MaxInt64)
	})},
	{"halt-resume", shape(func(s *script) {
		halt := func() { s.q.Halt() }
		s.at(5, halt) // halts with two more events at t=5 queued
		s.at(5, nil)
		s.at(5, halt)
		s.at(700, halt) // the same in a bucket reached by its walk
		s.at(700, func() { s.at(700, nil) })
		s.at(700, nil)
		s.q.RunUntil(math.MaxInt64)
		s.at(s.q.Now(), nil) // queued behind the halted instant's events
		s.q.RunUntil(math.MaxInt64)
		s.q.RunUntil(600) // the pushed event, then a deadline before 700
		s.q.RunUntil(math.MaxInt64)
		s.q.RunUntil(math.MaxInt64)
	})},
}
