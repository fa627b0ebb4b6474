//go:build simdebug

package sim

import "testing"

// TestPerturbSwapInvertsOnePair checks the simdebug perturbation harness
// produces the minimal determinism fault: the two hinted same-instant
// dispatches exchange payloads while every other dispatch is untouched.
// The events start at 0, in the bucket the first push opens, and at 1000
// behind an event at 0, in a bucket the scheduler sorts when its cursor
// opens it.
func TestPerturbSwapInvertsOnePair(t *testing.T) {
	for _, start := range []int64{0, 1000} {
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
			act := &digNopAction{}
			if start > 0 {
				e.At(0, func() {})
			}
			for i, p := range somePayloads(6) {
				e.AtEvent(start+int64(100*(i/2)), ClassLinkDeliver, act, p, int64(i))
			}
			e.RunUntil(1 << 20)
			return d.Captured(), d
		}
		base, cleanDig := run(0, 0)
		a, b, ok := cleanDig.PerturbHint()
		if !ok {
			t.Fatalf("start %d: clean run produced no perturb hint", start)
		}
		pert, pertDig := run(a, b)

		if cleanDig.Chain() == pertDig.Chain() {
			t.Fatalf("start %d: perturbed run's chain equals the clean run's", start)
		}
		if len(base) != len(pert) {
			t.Fatalf("start %d: event counts differ: %d vs %d", start, len(base), len(pert))
		}
		var diffs []int
		for i := range base {
			if base[i] != pert[i] {
				diffs = append(diffs, i)
			}
		}
		if len(diffs) != 2 || diffs[1] != diffs[0]+1 {
			t.Fatalf("start %d: perturbation touched dispatches %v, want exactly one adjacent pair", start, diffs)
		}
		i, j := diffs[0], diffs[1]
		// (t, seq) positions are preserved — only the payloads swap.
		if base[i].TNs != pert[i].TNs || base[i].Seq != pert[i].Seq {
			t.Fatalf("start %d: dispatch %d changed (t, seq): %+v vs %+v", start, i, base[i], pert[i])
		}
		if base[i].Fingerprint != pert[j].Fingerprint || base[j].Fingerprint != pert[i].Fingerprint {
			t.Fatalf("start %d: payloads did not swap: base %+v/%+v pert %+v/%+v",
				start, base[i], base[j], pert[i], pert[j])
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
