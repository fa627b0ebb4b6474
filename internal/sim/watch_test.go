package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// TestWatchInstants: a watch fires at every multiple of its interval after
// registration, after every event at that instant and before any later
// one, with the clock at the instant, also across stretches with no event.
// Watches due at one instant run in registration order, and one that
// returns false is never called again.
func TestWatchInstants(t *testing.T) {
	e := New()
	var log []string
	for _, at := range []int64{500, 1000, 1001, 3999} {
		at := at
		e.At(at, func() { log = append(log, fmt.Sprint("event ", at)) })
	}
	e.At(1000, func() {
		e.At(1000, func() { log = append(log, "event 1000 (pushed at 1000)") })
	})
	e.Watch(1000, func() bool {
		log = append(log, fmt.Sprint("every-1000 at ", e.Now()))
		return true
	})
	stops := 0
	e.Watch(2000, func() bool {
		log = append(log, fmt.Sprint("every-2000 at ", e.Now()))
		stops++
		return stops < 2
	})
	e.RunUntil(4500)
	e.Watch(1000, func() bool { // registered at 4500: first due at 5000
		log = append(log, fmt.Sprint("late at ", e.Now()))
		return false
	})
	e.RunUntil(6000)
	want := []string{
		"event 500",
		"event 1000", "event 1000 (pushed at 1000)", "every-1000 at 1000",
		"event 1001",
		"every-1000 at 2000", "every-2000 at 2000",
		"every-1000 at 3000",
		"event 3999",
		"every-1000 at 4000", "every-2000 at 4000",
		"every-1000 at 5000", "late at 5000",
		"every-1000 at 6000",
	}
	if !reflect.DeepEqual(log, want) {
		t.Fatalf("log:\n%q\nwant:\n%q", log, want)
	}
	if e.Now() != 6000 || len(e.watches) != 1 {
		t.Fatalf("now=%d watches=%d, want 6000 and 1", e.Now(), len(e.watches))
	}
}

// TestWatchRunReturnsOnDrainedQueue: Run fires the instants up to the last
// event, returns when the queue drains and leaves the clock at that event.
func TestWatchRunReturnsOnDrainedQueue(t *testing.T) {
	for _, last := range []int64{250, 300} {
		e := New()
		e.At(50, func() {})
		e.At(last, func() {})
		var fired []int64
		e.Watch(100, func() bool {
			fired = append(fired, e.Now())
			return len(fired) < 100 // bound the test if Run kept firing
		})
		e.Run()
		want := []int64{100, 200}
		if last == 300 {
			want = append(want, 300)
		}
		if !reflect.DeepEqual(fired, want) || e.Now() != last {
			t.Fatalf("last event at %d: fired %v with the clock at %d, want %v and %d", last, fired, e.Now(), want, last)
		}
	}
}

// TestWatchStopsOnHaltAndInterrupt: a halted or interrupted run fires no
// watch past the stop, and resuming fires the instants it then passes.
func TestWatchStopsOnHaltAndInterrupt(t *testing.T) {
	e := New()
	e.At(150, func() { e.Halt() })
	e.At(450, func() {})
	var fired []int64
	e.Watch(100, func() bool { fired = append(fired, e.Now()); return true })
	e.Run()
	if !reflect.DeepEqual(fired, []int64{100}) || e.Now() != 150 {
		t.Fatalf("halted run fired %v with the clock at %d, want [100] at 150", fired, e.Now())
	}
	e.Interrupt()
	e.RunUntil(1000)
	if len(fired) != 1 || e.Now() != 150 {
		t.Fatalf("interrupted run fired %v with the clock at %d", fired, e.Now())
	}
	e.ClearInterrupt()
	e.Run()
	if !reflect.DeepEqual(fired, []int64{100, 200, 300, 400}) || e.Now() != 450 {
		t.Fatalf("resumed run fired %v with the clock at %d", fired, e.Now())
	}
}

// TestWatchIsPassive: an engine with watches at several cadences
// dispatches exactly what an unwatched one does: the same event count,
// class counts, scheduler pressure and digest chain.
func TestWatchIsPassive(t *testing.T) {
	type report struct {
		processed uint64
		classes   []ClassStats
		pressure  SchedPressure
		chain     uint64
		windows   []DigestWindow
	}
	run := func(watched bool) report {
		e := New()
		d := NewEventDigest(8)
		e.AttachDigest(d)
		if watched {
			for _, iv := range []int64{1, 97, 128, 1000, 5000} {
				e.Watch(iv, func() bool { _ = e.Now() + int64(e.Processed); return true })
			}
		}
		r := NewRand(11)
		act := &digNopAction{}
		payloads := somePayloads(64)
		e.Every(0, 333, func() bool {
			for i := 0; i < 1+r.Intn(5); i++ {
				e.AtEvent(e.Now()+int64(r.Intn(400_000)), ClassLinkDeliver, act, payloads[r.Intn(len(payloads))], int64(i))
			}
			return e.Now() < 200_000
		})
		e.RunUntil(150_000)
		e.Run()
		return report{e.Processed, e.ProfileStats(), e.SchedPressure(), d.Chain(), d.Windows()}
	}
	plain, watched := run(false), run(true)
	if plain.processed < 1000 {
		t.Fatalf("workload too small: %d events", plain.processed)
	}
	if !reflect.DeepEqual(plain, watched) {
		t.Fatalf("watched run differs:\nplain   %+v\nwatched %+v", plain, watched)
	}
}
