package sim

import (
	"reflect"
	"testing"
)

// instrumentReport is everything the two observers report about one run;
// the sections of instruments that were not attached stay zero.
type instrumentReport struct {
	chain   uint64
	windows []DigestWindow

	counts []ClassStats // WallNs zeroed: real time differs run to run
}

// observe runs script on a fresh engine with the chosen instruments
// attached in the given order ("digest", "profile").
func observe(t *testing.T, script func(*Engine), attach ...string) instrumentReport {
	t.Helper()
	e := New()
	var d *EventDigest
	for _, name := range attach {
		switch name {
		case "digest":
			d = NewEventDigest(4)
			e.AttachDigest(d)
		case "profile":
			e.EnableProfiling(true)
		default:
			t.Fatalf("unknown instrument %q", name)
		}
	}
	if s, ok := e.obs.(observerSet); ok {
		if _, last := s[len(s)-1].(*profiler); e.Profiling() && !last {
			t.Fatal("profiler is not the innermost observer")
		}
	}
	script(e)
	var r instrumentReport
	if d != nil {
		r.chain, r.windows = d.Chain(), d.Windows()
	}
	for _, cs := range e.ProfileStats() {
		cs.WallNs = 0
		r.counts = append(r.counts, cs)
	}
	return r
}

// checkObserversCompose runs script under each instrument alone and under
// both at once (in both attach orders), and fails unless every instrument
// reports exactly the same in both settings: observers must neither
// perturb the dispatch order nor each other's bookkeeping.
func checkObserversCompose(t *testing.T, script func(*Engine)) {
	t.Helper()
	digest := observe(t, script, "digest")
	profile := observe(t, script, "profile")
	if len(digest.windows) == 0 || len(profile.counts) == 0 {
		t.Fatal("workload left an instrument empty")
	}
	for _, order := range [][]string{
		{"profile", "digest"},
		{"digest", "profile"},
	} {
		both := observe(t, script, order...)
		if both.chain != digest.chain || !reflect.DeepEqual(both.windows, digest.windows) {
			t.Fatalf("attach order %v: digest chain %x differs from the digest alone (%x)", order, both.chain, digest.chain)
		}
		if !reflect.DeepEqual(both.counts, profile.counts) {
			t.Fatalf("attach order %v: class counts %+v differ from the profiler alone (%+v)", order, both.counts, profile.counts)
		}
	}
}

// TestObserversDetachIndependently: detaching one instrument leaves the
// other attached, and detaching both empties the seam.
func TestObserversDetachIndependently(t *testing.T) {
	e := New()
	d := NewEventDigest(0)
	e.AttachDigest(d)
	e.EnableProfiling(true)
	e.AttachDigest(nil)
	if e.Digest() != nil || !e.Profiling() {
		t.Fatalf("after detaching the digest: digest=%v profiling=%v", e.Digest(), e.Profiling())
	}
	e.AttachDigest(d)
	e.EnableProfiling(false)
	if e.Digest() != d || e.Profiling() {
		t.Fatal("disabling profiling detached the digest or kept the profiler")
	}
	e.AttachDigest(nil)
	if e.obs != nil {
		t.Fatalf("seam not empty after detaching everything: %T", e.obs)
	}
}
