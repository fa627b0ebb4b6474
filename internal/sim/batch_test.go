package sim

import "testing"

// TestBatchReanchorOrder: the queue empties inside a handler, so the
// handler's first push re-anchors the calendar window, and its second push
// lands in bucket 0 — the index of the bucket the cursor had open when the
// queue emptied. The re-anchor must drop that bucket's consumed run and
// read position, or the run loop would serve stale items or skip the new
// ones; both events must fire in time order.
func TestBatchReanchorOrder(t *testing.T) {
	e := New()
	tA := int64(bucketWidth) // the open bucket of the re-anchored window
	tB := int64(wheelSpan)   // bucket 0 in the re-anchored window
	if int(tB>>wheelShift)&wheelMask != 0 {
		t.Fatalf("test geometry broken: tB=%d does not alias bucket 0", tB)
	}
	var order []int64
	e.At(0, func() {}) // consumed first, so the queue is empty while the
	// second handler runs
	e.At(0, func() {
		// n == 0 here: the first push below re-anchors the window.
		e.At(tA, func() { order = append(order, e.Now()) })
		e.At(tB, func() { order = append(order, e.Now()) })
	})
	e.Run()
	if len(order) != 2 || order[0] != tA || order[1] != tB {
		t.Fatalf("events fired as %v, want [%d %d]", order, tA, tB)
	}
}
