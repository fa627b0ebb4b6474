package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEventOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("now = %d", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events reordered at %d: %v", i, v)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var fired []int64
	e.At(10, func() {
		e.After(5, func() { fired = append(fired, e.Now()) })
		e.At(12, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 2 || fired[0] != 12 || fired[1] != 15 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	count := 0
	e.Every(0, 10, func() bool { count++; return true })
	e.RunUntil(95)
	if count != 10 { // t = 0,10,...,90
		t.Fatalf("count = %d, want 10", count)
	}
	if e.Now() != 95 {
		t.Fatalf("now = %d, want 95", e.Now())
	}
	e.RunUntil(100)
	if count != 11 {
		t.Fatalf("count after resume = %d, want 11", count)
	}
}

func TestEveryStopsOnFalse(t *testing.T) {
	e := New()
	count := 0
	e.Every(0, 1, func() bool {
		count++
		return count < 5
	})
	e.Run()
	if count != 5 {
		t.Fatalf("count = %d", count)
	}
}

func TestHalt(t *testing.T) {
	e := New()
	ran := 0
	e.At(1, func() { ran++; e.Halt() })
	e.At(2, func() { ran++ })
	e.Run()
	if ran != 1 {
		t.Fatalf("ran = %d, want 1 (halted)", ran)
	}
	e.Run() // resume
	if ran != 2 {
		t.Fatalf("ran after resume = %d, want 2", ran)
	}
}

func TestPastSchedulingClamps(t *testing.T) {
	e := New()
	var at int64 = -1
	panicked := false
	e.At(100, func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		e.At(50, func() { at = e.Now() }) // in the past: clamp to now
	})
	e.Run()
	if simDebug {
		// `-tags simdebug` builds panic at the offending call instead.
		if !panicked {
			t.Fatal("past scheduling did not panic under simdebug")
		}
		return
	}
	if panicked {
		t.Fatal("past scheduling panicked in a normal build")
	}
	if at != 100 {
		t.Fatalf("past event ran at %d, want 100", at)
	}
	if c := e.SchedPressure().Clamps; c != 1 {
		t.Fatalf("clamps = %d, want 1", c)
	}
}

// Property: events always fire in nondecreasing time order regardless of
// insertion order.
func TestMonotonicClockProperty(t *testing.T) {
	f := func(times []uint16) bool {
		e := New()
		last := int64(-1)
		okOrder := true
		for _, tt := range times {
			tt := int64(tt)
			e.At(tt, func() {
				if e.Now() < last {
					okOrder = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return okOrder
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminismAndFork(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	// Forked streams must differ from parent continuation and each other.
	p := NewRand(7)
	f1, f2 := p.Fork(1), p.Fork(2)
	if f1.Uint64() == f2.Uint64() {
		t.Fatal("forks correlated")
	}
}

func TestRandDistributions(t *testing.T) {
	r := NewRand(1)
	// Float64 in [0,1), mean ~0.5.
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %g", v)
		}
		sum += v
	}
	if m := sum / n; m < 0.49 || m > 0.51 {
		t.Fatalf("Float64 mean = %g", m)
	}
	// Exp mean.
	sum = 0
	for i := 0; i < n; i++ {
		sum += r.Exp(100)
	}
	if m := sum / n; m < 97 || m > 103 {
		t.Fatalf("Exp mean = %g, want ~100", m)
	}
	// Intn range.
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	// Perm is a permutation.
	p := r.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if seen[v] {
			t.Fatal("perm repeats")
		}
		seen[v] = true
	}
}

func TestInterruptStopsRun(t *testing.T) {
	e := New()
	ran := 0
	// The interrupt lands mid-run: honored at the next poll boundary, so
	// well before all 10k events execute.
	e.Every(0, 1, func() bool {
		ran++
		if ran == 100 {
			e.Interrupt()
		}
		return ran < 10_000
	})
	e.Run()
	if ran < 100 || ran >= 10_000 {
		t.Fatalf("ran = %d, want interrupted between 100 and 10000", ran)
	}
	if !e.Interrupted() {
		t.Fatal("Interrupted() = false after Interrupt")
	}
	// Sticky: further runs return immediately without executing events.
	before := ran
	e.Run()
	if ran != before {
		t.Fatalf("interrupted engine executed %d more events", ran-before)
	}
	if e.Pending() == 0 {
		t.Fatal("pending events discarded by interrupt; they must stay queued")
	}
	// ClearInterrupt re-arms the loop and the run resumes where it left off.
	e.ClearInterrupt()
	e.Run()
	if ran != 10_000 {
		t.Fatalf("ran = %d after resume, want 10000", ran)
	}
}

func TestInterruptFromAnotherGoroutine(t *testing.T) {
	e := New()
	started := make(chan struct{})
	n := 0
	e.Every(0, 1, func() bool {
		n++
		if n == 1 {
			close(started)
		}
		return true // unbounded: only the interrupt ends this run
	})
	go func() {
		<-started
		e.Interrupt()
	}()
	done := make(chan struct{})
	go func() {
		e.Run()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not stop within 10s of a cross-goroutine Interrupt")
	}
}
