package sim

import (
	"reflect"
	"testing"
)

// instrumentReport is what the two instruments report about one run.
type instrumentReport struct {
	chain   uint64
	windows []DigestWindow

	counts []ClassStats // WallNs zeroed: real time differs run to run
}

// observe runs script on a fresh engine with the digest attached and,
// if profile is set, the profiler on.
func observe(script func(*Engine), profile bool) instrumentReport {
	e := New()
	d := NewEventDigest(4)
	e.AttachDigest(d)
	e.EnableProfiling(profile)
	script(e)
	r := instrumentReport{chain: d.Chain(), windows: d.Windows()}
	for _, cs := range e.ProfileStats() {
		cs.WallNs = 0
		r.counts = append(r.counts, cs)
	}
	return r
}

// checkProfilerInvisible runs script with the digest alone and with the
// profiler on too, and fails unless the digest chain and the class counts
// are the same in both: timing handlers must not move the dispatch order
// or the digest's bookkeeping.
func checkProfilerInvisible(t *testing.T, script func(*Engine)) {
	t.Helper()
	plain := observe(script, false)
	profiled := observe(script, true)
	if len(plain.windows) == 0 || len(plain.counts) == 0 {
		t.Fatal("workload left an instrument empty")
	}
	if profiled.chain != plain.chain || !reflect.DeepEqual(profiled.windows, plain.windows) {
		t.Fatalf("digest chain %x with the profiler differs from the digest alone (%x)", profiled.chain, plain.chain)
	}
	if !reflect.DeepEqual(profiled.counts, plain.counts) {
		t.Fatalf("class counts %+v with the profiler differ from the digest alone (%+v)", profiled.counts, plain.counts)
	}
}

// TestObserversDetachIndependently: detaching one instrument leaves the
// other attached.
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
}
