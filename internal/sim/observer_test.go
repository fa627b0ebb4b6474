package sim

import (
	"reflect"
	"testing"
)

// instrumentReport is everything the three observers report about one
// run; the sections of instruments that were not attached stay zero.
type instrumentReport struct {
	edges   []LedgerEdge
	chains  []LedgerChain
	fanouts []LedgerFanout
	adj     []LedgerAdj

	chain   uint64
	windows []DigestWindow

	counts []ClassStats // WallNs zeroed: real time differs run to run
}

// observe runs script on a fresh engine with the chosen instruments
// attached in the given order ("ledger", "digest", "profile").
func observe(t *testing.T, script func(*Engine), attach ...string) instrumentReport {
	t.Helper()
	e := New()
	var l *Ledger
	var d *EventDigest
	for _, name := range attach {
		switch name {
		case "ledger":
			l = NewLedger(2)
			e.AttachLedger(l)
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
	if l != nil {
		l.Flush()
		r.edges, r.chains, r.fanouts, r.adj = l.Edges(), l.Chains(), l.Fanouts(), l.AdjacentSameInstant()
	}
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
// all three at once (in two attach orders), and fails unless every
// instrument reports exactly the same in both settings: observers must
// neither perturb the dispatch order nor each other's bookkeeping.
func checkObserversCompose(t *testing.T, script func(*Engine)) {
	t.Helper()
	ledger := observe(t, script, "ledger")
	digest := observe(t, script, "digest")
	profile := observe(t, script, "profile")
	if len(ledger.fanouts) == 0 || len(digest.windows) == 0 || len(profile.counts) == 0 {
		t.Fatal("workload left an instrument empty")
	}
	for _, order := range [][]string{
		{"profile", "ledger", "digest"},
		{"digest", "ledger", "profile"},
	} {
		all := observe(t, script, order...)
		if !reflect.DeepEqual(all.edges, ledger.edges) || !reflect.DeepEqual(all.chains, ledger.chains) ||
			!reflect.DeepEqual(all.fanouts, ledger.fanouts) || !reflect.DeepEqual(all.adj, ledger.adj) {
			t.Fatalf("attach order %v: ledger differs from the ledger alone", order)
		}
		if all.chain != digest.chain || !reflect.DeepEqual(all.windows, digest.windows) {
			t.Fatalf("attach order %v: digest chain %x differs from the digest alone (%x)", order, all.chain, digest.chain)
		}
		if !reflect.DeepEqual(all.counts, profile.counts) {
			t.Fatalf("attach order %v: class counts %+v differ from the profiler alone (%+v)", order, all.counts, profile.counts)
		}
	}
}

// TestObserversDetachIndependently: detaching one instrument leaves the
// others attached, and detaching all of them empties the seam.
func TestObserversDetachIndependently(t *testing.T) {
	e := New()
	l, d := NewLedger(1), NewEventDigest(0)
	e.AttachLedger(l)
	e.AttachDigest(d)
	e.EnableProfiling(true)
	e.AttachLedger(nil)
	if e.Ledger() != nil || e.Digest() != d || !e.Profiling() {
		t.Fatalf("after detaching the ledger: ledger=%v digest=%v profiling=%v", e.Ledger(), e.Digest(), e.Profiling())
	}
	e.EnableProfiling(false)
	if e.Digest() != d || e.Profiling() {
		t.Fatal("disabling profiling detached the digest or kept the profiler")
	}
	e.AttachDigest(nil)
	if e.obs != nil {
		t.Fatalf("seam not empty after detaching everything: %T", e.obs)
	}
}
