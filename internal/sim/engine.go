// Package sim provides the discrete-event simulation substrate OpenOptics
// runs on when no physical Tofino/OCS hardware is available: a
// nanosecond-resolution virtual clock, a calendar-queue event scheduler,
// and deterministic random number generation. All devices (switches, hosts,
// fabrics) execute on one Engine, which serializes their event handlers —
// device state needs no locking.
package sim

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Engine is a single-threaded discrete-event simulator. Events scheduled
// for the same instant fire in scheduling order (stable), which keeps runs
// bit-for-bit reproducible. Event storage is the calendar-queue/overflow
// hybrid in sched.go; steady-state scheduling allocates nothing.
type Engine struct {
	now    int64
	seq    uint64
	sched  scheduler
	halted bool
	// Processed counts executed events (diagnostics).
	Processed uint64

	// interrupted is the cross-goroutine stop request (Interrupt). It is
	// the only engine state another goroutine may touch; the run loop polls
	// it every interruptMask+1 events so the steady-state cost is a masked
	// branch, not an atomic load per event.
	interrupted atomic.Bool

	// Per-class event counts (profile.go): always collected, one array
	// increment per event. wall holds the per-class handler wall time,
	// accumulated only while profiling is on (two clock reads per event).
	classCount [NumClasses]uint64
	wall       [NumClasses]int64
	profiling  bool

	// digest is the attached determinism digest (digest.go), the one
	// observer of the dispatch stream; nil when detached.
	digest *EventDigest

	// Perturbation harness (digest.go, simdebug builds only): when armed,
	// the events that would receive sequence numbers perturbA and perturbB
	// receive each other's instead, inverting one same-instant dispatch
	// pair's order. The swap branch is compiled out of normal builds.
	perturbA, perturbB uint64
}

// New returns an engine with the clock at zero.
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time in nanoseconds.
func (e *Engine) Now() int64 { return e.now }

// At schedules fn to run at virtual time t. Scheduling in the past is an
// error in device logic; normal builds clamp it to "now" to keep the run
// going, while `-tags simdebug` builds panic at the offending call so
// tests can pinpoint the code path (see debug_off.go / debug_on.go).
func (e *Engine) At(t int64, fn func()) { e.AtClass(t, ClassOther, fn) }

// AtClass schedules fn at time t under a handler class, so the profiler
// can attribute its executions and wall time to a subsystem.
func (e *Engine) AtClass(t int64, class Class, fn func()) {
	if fn == nil {
		panic("sim: nil event fn")
	}
	r := e.schedule(t)
	r.act, r.class = funcAction(fn), class
}

// schedule queues an event at time t and returns its slab record for the
// caller to fill in place: the one scheduling path behind every
// At*/After*/Every* variant.
func (e *Engine) schedule(t int64) *eventRec {
	if t < e.now {
		if simDebug {
			panic(fmt.Sprintf("sim: scheduling event at t=%d in the past (now=%d)", t, e.now))
		}
		t = e.now
	}
	return e.sched.push(t, e.nextSeq())
}

// nextSeq allocates the next scheduling sequence number, applying the
// simdebug perturbation swap (PerturbSwapSeq) when armed. e.seq itself
// always advances monotonically — only the number handed to the scheduler
// is swapped — so the digest's bookkeeping stays untouched.
func (e *Engine) nextSeq() uint64 {
	e.seq++
	s := e.seq
	if simDebug && e.perturbB != 0 {
		if s == e.perturbA {
			s = e.perturbB
		} else if s == e.perturbB {
			s = e.perturbA
		}
	}
	return s
}

// AtEvent schedules a pre-bound action at time t: at dispatch, act.RunEvent
// is called with the recorded operands. This is the closure-free fast path
// for per-packet machinery — the hot forwarding loops (link delivery,
// ingress pipelines, egress drains) schedule millions of events per
// simulated second, and a closure per event is the single largest source
// of allocation and GC pressure. Semantics (ordering, past-time clamping)
// are identical to AtClass.
func (e *Engine) AtEvent(t int64, class Class, act Action, arg any, v int64) {
	if act == nil {
		panic("sim: nil event action")
	}
	r := e.schedule(t)
	r.act, r.arg, r.v, r.class = act, arg, v, class
}

// AfterEvent is AtEvent d nanoseconds from now.
func (e *Engine) AfterEvent(d int64, class Class, act Action, arg any, v int64) {
	if d < 0 {
		d = 0
	}
	e.AtEvent(e.now+d, class, act, arg, v)
}

// After schedules fn to run d nanoseconds from now.
func (e *Engine) After(d int64, fn func()) { e.AfterClass(d, ClassOther, fn) }

// AfterClass schedules fn d nanoseconds from now under a handler class.
func (e *Engine) AfterClass(d int64, class Class, fn func()) {
	if d < 0 {
		d = 0
	}
	e.AtClass(e.now+d, class, fn)
}

// AfterDur schedules fn to run after a time.Duration.
func (e *Engine) AfterDur(d time.Duration, fn func()) { e.After(int64(d), fn) }

// Every schedules fn at start and then every interval nanoseconds until fn
// returns false or the engine halts. It models periodic device machinery —
// the on-chip packet generator, traffic collection, flow aging scans.
func (e *Engine) Every(start, interval int64, fn func() bool) {
	e.EveryClass(start, interval, ClassOther, fn)
}

// EveryClass is Every under a handler class.
func (e *Engine) EveryClass(start, interval int64, class Class, fn func() bool) {
	if interval <= 0 {
		panic(fmt.Sprintf("sim: non-positive interval %d", interval))
	}
	var tick func()
	next := start
	tick = func() {
		if e.halted {
			return
		}
		if !fn() {
			return
		}
		next += interval
		e.AtClass(next, class, tick)
	}
	e.AtClass(start, class, tick)
}

// Run executes events until the queue drains or Halt is called.
func (e *Engine) Run() {
	e.RunUntil(math.MaxInt64)
}

// interruptMask throttles the Interrupt poll in the run loop: the atomic
// flag is read once per mask+1 executed events (and once on entry), so an
// interrupt is honored within a few microseconds of simulation work.
const interruptMask = 1023

// RunUntil executes events with timestamps <= deadline. Unless halted or
// running to MaxInt64 (Run), the clock then moves to the deadline, but
// never backwards: a deadline behind Now() runs nothing and leaves the
// clock where it is.
func (e *Engine) RunUntil(deadline int64) {
	if e.interrupted.Load() {
		return
	}
	e.halted = false
	s := &e.sched
	for s.n > 0 && !e.halted {
		if e.Processed&interruptMask == 0 && e.interrupted.Load() {
			return
		}
		it, src := s.peek()
		if it.t > deadline {
			break
		}
		t, seq, r := s.pop(src)
		e.now = t
		e.Processed++
		e.dispatch(r, seq)
	}
	if !e.halted && deadline != math.MaxInt64 && deadline > e.now {
		e.now = deadline
	}
}

// dispatch invokes the handler of the popped event whose slab record is
// r, with class accounting. It reads the record's fields and clears the
// slot before the handler runs, since the handler's pushes may reuse it.
// seq is the event's scheduling sequence number — the second half of the
// deterministic (t, seq) total order. With instruments on, the digest
// folds the event before the handler (its payload may be recycled inside)
// and closes a full window after it, and the profiler's clock reads
// bracket the handler alone.
func (e *Engine) dispatch(r *eventRec, seq uint64) {
	act, arg, v, class := r.act, r.arg, r.v, r.class
	*r = eventRec{} // drop action/operand references
	e.classCount[class]++
	d := e.digest
	if d == nil && !e.profiling {
		act.RunEvent(arg, v)
		return
	}
	if d != nil {
		d.beginDispatch(e, seq, class, arg, v)
	}
	if e.profiling {
		start := time.Now()
		act.RunEvent(arg, v)
		e.wall[class] += time.Since(start).Nanoseconds()
	} else {
		act.RunEvent(arg, v)
	}
	if d != nil {
		d.endDispatch()
	}
}

// RunFor executes events for d nanoseconds of virtual time from now. The
// deadline saturates at MaxInt64 instead of wrapping negative.
func (e *Engine) RunFor(d time.Duration) { e.RunUntil(satAdd(e.now, int64(d))) }

// Halt stops Run after the current event handler returns. Pending events
// remain queued; Run may be called again to resume.
func (e *Engine) Halt() { e.halted = true }

// Interrupt requests the run loop to stop and is the one engine method
// that is safe to call from another goroutine (signal handlers, watchdog
// timers). The request is sticky: once set, Run/RunUntil/RunFor return
// promptly — including calls made after the interrupt — until
// ClearInterrupt. Pending events stay queued, so callers can flush
// telemetry and, if they choose, resume.
func (e *Engine) Interrupt() { e.interrupted.Store(true) }

// Interrupted reports whether Interrupt has been requested.
func (e *Engine) Interrupted() bool { return e.interrupted.Load() }

// ClearInterrupt re-arms the run loop after an Interrupt.
func (e *Engine) ClearInterrupt() { e.interrupted.Store(false) }

// Pending returns the number of queued events (diagnostics only).
func (e *Engine) Pending() int { return e.sched.n }
