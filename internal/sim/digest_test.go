package sim

import "testing"

// fpPayload is a Fingerprinted test payload with a fixed identity.
type fpPayload struct {
	node int32
	fp   uint64
}

func (p *fpPayload) EventFingerprint() (int32, uint64) { return p.node, p.fp }

type digNopAction struct{ fired int }

func (a *digNopAction) RunEvent(any, int64) { a.fired++ }

// runScript executes a fixed event script under a digest with the given
// window width and returns the digest.
func runScript(windowEvents uint64, payloads []*fpPayload) *EventDigest {
	e := New()
	d := NewEventDigest(windowEvents)
	e.AttachDigest(d)
	digestScript(e, payloads)
	return d
}

// digestScript schedules one fingerprinted action per payload, two per
// instant, and runs them.
func digestScript(e *Engine, payloads []*fpPayload) {
	act := &digNopAction{}
	for i, p := range payloads {
		e.AtEvent(int64(100*(i/2)), ClassLinkDeliver, act, p, int64(i))
	}
	e.RunUntil(1 << 20)
}

func somePayloads(n int) []*fpPayload {
	ps := make([]*fpPayload, n)
	for i := range ps {
		ps[i] = &fpPayload{node: int32(i % 7), fp: uint64(i)*0x9e3779b97f4a7c15 + 1}
	}
	return ps
}

func TestDigestDeterministic(t *testing.T) {
	a := runScript(4, somePayloads(10))
	b := runScript(4, somePayloads(10))
	if a.Chain() != b.Chain() {
		t.Fatalf("identical scripts digest differently: %x vs %x", a.Chain(), b.Chain())
	}
	if a.Events() != 10 {
		t.Fatalf("events = %d, want 10", a.Events())
	}
	if len(a.Windows()) != 2 {
		t.Fatalf("windows = %d, want 2 (10 events / width 4)", len(a.Windows()))
	}
	for i, w := range a.Windows() {
		if w.Index != i || w.EndEvents != uint64(4*(i+1)) {
			t.Fatalf("window %d malformed: %+v", i, w)
		}
		if w.Hash != b.Windows()[i].Hash || w.Chain != b.Windows()[i].Chain {
			t.Fatalf("window %d differs between identical runs", i)
		}
	}
	// With the profiler attached too, the digest chain is the one the
	// digest records alone (and so are the profiler's class counts).
	checkObserversCompose(t, func(e *Engine) { digestScript(e, somePayloads(10)) })
}

func TestDigestDetectsChange(t *testing.T) {
	base := somePayloads(10)
	a := runScript(4, base)

	mut := somePayloads(10)
	mut[6].fp ^= 1 // one payload bit in window 1
	b := runScript(4, mut)

	if a.Chain() == b.Chain() {
		t.Fatal("chains equal despite a payload difference")
	}
	if a.Windows()[0].Hash != b.Windows()[0].Hash {
		t.Fatal("window 0 hash changed but the difference is in window 1")
	}
	if a.Windows()[1].Hash == b.Windows()[1].Hash {
		t.Fatal("window 1 hash unchanged despite a payload difference in it")
	}
}

// TestDigestChainCoversPartialWindow checks that the final chain reflects
// events past the last closed window boundary.
func TestDigestChainCoversPartialWindow(t *testing.T) {
	a := runScript(4, somePayloads(9))
	b := runScript(4, somePayloads(10))
	if len(a.Windows()) != 2 || len(b.Windows()) != 2 {
		t.Fatalf("windows = %d/%d, want 2/2", len(a.Windows()), len(b.Windows()))
	}
	if last := len(a.Windows()) - 1; a.Windows()[last].Chain != b.Windows()[last].Chain {
		t.Fatal("closed-window chains should match for a shared prefix")
	}
	if a.Chain() == b.Chain() {
		t.Fatal("chains equal despite different partial-window tails")
	}
}

// TestDigestWindowCloseHook checks the close hook runs once per closed
// window, after the handler of the window's last event, records its value
// as the window's State, and leaves the dispatch stream as it is.
func TestDigestWindowCloseHook(t *testing.T) {
	e := New()
	d := NewEventDigest(4)
	act := &digNopAction{}
	d.OnWindowClose(func() uint64 { return uint64(act.fired) })
	e.AttachDigest(d)
	for i, p := range somePayloads(10) {
		e.AtEvent(int64(100*(i/2)), ClassLinkDeliver, act, p, int64(i))
	}
	e.RunUntil(1 << 20)
	ws := d.Windows()
	if len(ws) != 2 || ws[0].State != 4 || ws[1].State != 8 {
		t.Fatalf("windows %+v, want states 4 and 8 (handlers run before the close)", ws)
	}
	plain := runScript(4, somePayloads(10))
	if e.Processed != 10 || d.Chain() != plain.Chain() || ws[1].Chain != plain.Windows()[1].Chain {
		t.Fatalf("the hook moved the run: %d events, chain %x vs %x", e.Processed, d.Chain(), plain.Chain())
	}
}

func TestDigestCapture(t *testing.T) {
	d := NewEventDigest(8)
	d.SetCapture(2, 5)
	e := New()
	e.AttachDigest(d)
	act := &digNopAction{}
	ps := somePayloads(8)
	for i, p := range ps {
		e.AtEvent(int64(i*10), ClassLinkDeliver, act, p, int64(i))
	}
	e.RunUntil(1 << 20)
	got := d.Captured()
	if len(got) != 3 {
		t.Fatalf("captured %d events, want 3", len(got))
	}
	for k, ev := range got {
		i := k + 2
		if ev.Index != uint64(i) || ev.TNs != int64(i*10) || ev.Class != ClassLinkDeliver ||
			ev.Node != ps[i].node || ev.Fingerprint == 0 || ev.V != int64(i) {
			t.Fatalf("captured[%d] = %+v, want index %d t %d node %d", k, ev, i, i*10, ps[i].node)
		}
	}
}

// TestDigestPerturbHint checks the hint names a same-instant pair whose
// second member was already queued when the first dispatched.
func TestDigestPerturbHint(t *testing.T) {
	// Events 0 and 1 share t=0 (both pre-queued); the hint must name them.
	d := runScript(64, somePayloads(6))
	a, b, ok := d.PerturbHint()
	if !ok {
		t.Fatal("no perturb hint despite same-instant pre-queued events")
	}
	if a == b || a == 0 || b == 0 {
		t.Fatalf("degenerate hint %d:%d", a, b)
	}
	// The hint pair is adjacent in dispatch order at one instant; for this
	// script the first same-instant pair is the first two scheduled events.
	if a != 1 || b != 2 {
		t.Fatalf("hint = %d:%d, want 1:2 (first two scheduled events)", a, b)
	}
}

// TestDigestWindowRounding checks the power-of-two rounding and default.
func TestDigestWindowRounding(t *testing.T) {
	if w := NewEventDigest(0).WindowEvents(); w != DefaultDigestWindow {
		t.Fatalf("default window = %d, want %d", w, DefaultDigestWindow)
	}
	if w := NewEventDigest(3).WindowEvents(); w != 4 {
		t.Fatalf("window(3) = %d, want 4", w)
	}
	if w := NewEventDigest(64).WindowEvents(); w != 64 {
		t.Fatalf("window(64) = %d, want 64", w)
	}
}

// TestDetachedDigestIsNil pins the zero-cost-when-detached contract at the
// API level: no digest attached, no digest observable.
func TestDetachedDigestIsNil(t *testing.T) {
	e := New()
	if e.Digest() != nil {
		t.Fatal("fresh engine has a digest attached")
	}
	if e.PerturbSwapSeq(0, 0) {
		t.Fatal("PerturbSwapSeq(0,0) must never arm")
	}
}
