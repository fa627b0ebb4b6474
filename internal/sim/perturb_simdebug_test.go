//go:build simdebug

package sim

import "testing"

// TestPerturbSwapInvertsOnePair checks the simdebug perturbation harness
// produces the minimal determinism fault: the two hinted same-instant
// dispatches exchange payloads while every other dispatch is untouched.
// The swapped pair meets in one nanosecond list of the calendar in three
// ways: both pushed into the bucket the first push opens, both linked by
// the walk of a bucket the cursor opens later, and one linked by that walk
// while the other is pushed into the open bucket by a handler. A list that
// links at its tail instead of by seq keeps the pushes' order and fails.
func TestPerturbSwapInvertsOnePair(t *testing.T) {
	pairs := func(start int64) func(e *Engine, act Action, ps []*fpPayload) {
		return func(e *Engine, act Action, ps []*fpPayload) {
			if start > 0 {
				e.At(0, func() {})
			}
			for i, p := range ps {
				e.AtEvent(start+int64(100*(i/2)), ClassLinkDeliver, act, p, int64(i))
			}
		}
	}
	cases := []struct {
		name     string
		schedule func(e *Engine, act Action, ps []*fpPayload)
	}{
		{"open bucket", pairs(0)},
		{"bucket walk", pairs(1000)},
		{"walk meets handler", func(e *Engine, act Action, ps []*fpPayload) {
			e.At(0, func() {})
			// 990 and 1000 share the bucket [896, 1024): the handler at
			// 990 runs after its walk and links the second event at 1000
			// behind the first.
			e.AtEvent(1000, ClassLinkDeliver, act, ps[0], 0)
			e.At(990, func() { e.AtEvent(1000, ClassLinkDeliver, act, ps[1], 1) })
			for i, p := range ps[2:] {
				e.AtEvent(1100+int64(100*i), ClassLinkDeliver, act, p, int64(i+2))
			}
		}},
	}
	for _, c := range cases {
		run := func(pa, pb uint64) ([]CapturedEvent, *EventDigest) {
			e := New()
			d := NewEventDigest(64)
			d.SetCapture(0, 1<<20)
			e.AttachDigest(d)
			// Arm before scheduling: the swap relabels sequence numbers as
			// they are assigned, mirroring the drivers' wiring order (attach
			// digest, arm perturbation, then build the workload).
			if pb != 0 && !e.PerturbSwapSeq(pa, pb) {
				t.Fatal("PerturbSwapSeq refused in a simdebug build")
			}
			c.schedule(e, &digNopAction{}, somePayloads(6))
			e.RunUntil(1 << 20)
			return d.Captured(), d
		}
		base, cleanDig := run(0, 0)
		a, b, ok := cleanDig.PerturbHint()
		if !ok {
			t.Fatalf("%s: clean run produced no perturb hint", c.name)
		}
		pert, pertDig := run(a, b)

		if cleanDig.Chain() == pertDig.Chain() {
			t.Fatalf("%s: perturbed run's chain equals the clean run's", c.name)
		}
		if len(base) != len(pert) {
			t.Fatalf("%s: event counts differ: %d vs %d", c.name, len(base), len(pert))
		}
		var diffs []int
		for i := range base {
			if base[i] != pert[i] {
				diffs = append(diffs, i)
			}
		}
		if len(diffs) != 2 || diffs[1] != diffs[0]+1 {
			t.Fatalf("%s: perturbation touched dispatches %v, want exactly one adjacent pair", c.name, diffs)
		}
		i, j := diffs[0], diffs[1]
		// (t, seq) positions are preserved — only the payloads swap.
		if base[i].TNs != pert[i].TNs || base[i].Seq != pert[i].Seq {
			t.Fatalf("%s: dispatch %d changed (t, seq): %+v vs %+v", c.name, i, base[i], pert[i])
		}
		if base[i].Fingerprint != pert[j].Fingerprint || base[j].Fingerprint != pert[i].Fingerprint {
			t.Fatalf("%s: payloads did not swap: base %+v/%+v pert %+v/%+v",
				c.name, base[i], base[j], pert[i], pert[j])
		}
	}
}

// TestPerturbSwapIdempotentWindows checks window boundaries are unaffected
// by a swap inside one window (only hashes change).
func TestPerturbSwapIdempotentWindows(t *testing.T) {
	e := New()
	d := NewEventDigest(4)
	e.AttachDigest(d)
	if !e.PerturbSwapSeq(1, 2) {
		t.Fatal("PerturbSwapSeq refused in a simdebug build")
	}
	act := &digNopAction{}
	for i, p := range somePayloads(8) {
		e.AtEvent(0, ClassLinkDeliver, act, p, int64(i))
	}
	e.RunUntil(1 << 20)
	if len(d.Windows()) != 2 {
		t.Fatalf("windows = %d, want 2", len(d.Windows()))
	}
	for i, w := range d.Windows() {
		if w.EndEvents != uint64(4*(i+1)) {
			t.Fatalf("window %d ends at %d events, want %d", i, w.EndEvents, 4*(i+1))
		}
	}
}
