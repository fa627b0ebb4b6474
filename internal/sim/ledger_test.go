package sim

import (
	"reflect"
	"testing"
)

// These tests pin the event-causality ledger's aggregation on synthetic
// cascades where every edge, delay, fan-out, and chain signature is known
// exactly: linear cascades with constant offsets, same-instant fan-out,
// sampling gates, the chain-length cap, and cross-run determinism.

// cascade schedules a linear chain of classes: a root event of classes[0]
// at t=0 whose handler schedules classes[1] after gap ns, and so on.
func cascade(e *Engine, classes []Class, gap int64) {
	var step func(i int)
	step = func(i int) {
		if i+1 < len(classes) {
			next := i + 1
			e.AfterClass(gap, classes[next], func() { step(next) })
		}
	}
	e.AtClass(0, classes[0], func() { step(0) })
}

func edgeOf(t *testing.T, l *Ledger, p, c Class) EdgeStats {
	t.Helper()
	for _, e := range l.Edges() {
		if e.Parent == p && e.Child == c {
			return e.EdgeStats
		}
	}
	t.Fatalf("edge %s -> %s not recorded", p, c)
	return EdgeStats{}
}

func TestLedgerEdgesFanoutAndRoots(t *testing.T) {
	e := New()
	l := NewLedger(1)
	e.AttachLedger(l)
	if e.Ledger() != l {
		t.Fatal("Ledger() accessor broken")
	}
	chain := []Class{ClassHostTx, ClassLinkDeliver, ClassSwitchIngress}
	for i := 0; i < 5; i++ {
		cascade(e, chain, 600)
	}
	e.Run()

	// 5 roots of host.tx; every cascade contributes one edge per link with
	// a constant 600 ns offset.
	roots := l.Roots()
	if len(roots) != 1 || roots[0].Class != ClassHostTx || roots[0].Count != 5 {
		t.Fatalf("roots = %+v, want 5x host.tx", roots)
	}
	for _, pair := range [][2]Class{
		{ClassHostTx, ClassLinkDeliver},
		{ClassLinkDeliver, ClassSwitchIngress},
	} {
		es := edgeOf(t, l, pair[0], pair[1])
		if es.Count != 5 || es.SameInstant != 0 {
			t.Fatalf("%s->%s: count=%d same=%d, want 5/0", pair[0], pair[1], es.Count, es.SameInstant)
		}
		if es.MinDelayNs != 600 || es.MaxDelayNs != 600 || es.SumDelayNs != 3000 {
			t.Fatalf("%s->%s delay stats = %+v, want constant 600", pair[0], pair[1], es)
		}
	}
	// Fan-out: host.tx and link.deliver dispatches each scheduled exactly
	// one child; switch.ingress scheduled none.
	fans := map[Class]LedgerFanout{}
	for _, f := range l.Fanouts() {
		fans[f.Class] = f
	}
	if f := fans[ClassHostTx]; f.Zero != 0 || f.One != 5 || f.Many != 0 {
		t.Fatalf("host.tx fanout = %+v", f)
	}
	if f := fans[ClassSwitchIngress]; f.Zero != 5 || f.One != 0 || f.Many != 0 {
		t.Fatalf("switch.ingress fanout = %+v", f)
	}
}

func TestLedgerSameInstantAndAdjacency(t *testing.T) {
	e := New()
	l := NewLedger(1)
	e.AttachLedger(l)
	// One dispatch fanning out two same-instant children (After 0 ns), which
	// then dispatch back-to-back at the same virtual time.
	e.AtClass(10, ClassSwitchDrain, func() {
		e.AfterClass(0, ClassLinkDeliver, func() {})
		e.AfterClass(0, ClassHostTx, func() {})
	})
	e.Run()

	es := edgeOf(t, l, ClassSwitchDrain, ClassLinkDeliver)
	if es.Count != 1 || es.SameInstant != 1 || es.MinDelayNs != 0 || es.MaxDelayNs != 0 {
		t.Fatalf("same-instant edge stats = %+v", es)
	}
	fans := map[Class]LedgerFanout{}
	for _, f := range l.Fanouts() {
		fans[f.Class] = f
	}
	if f := fans[ClassSwitchDrain]; f.Many != 1 {
		t.Fatalf("drain fanout = %+v, want one 2+ dispatch", f)
	}
	// The two children dispatch adjacently at t=10: drain->deliver then
	// deliver->host.tx.
	adj := l.AdjacentSameInstant()
	want := []LedgerAdj{
		{Prev: ClassLinkDeliver, Next: ClassHostTx, Count: 1},
		{Prev: ClassSwitchDrain, Next: ClassLinkDeliver, Count: 1},
	}
	if !reflect.DeepEqual(adj, want) {
		t.Fatalf("adjacency = %+v, want %+v", adj, want)
	}
}

func TestLedgerChainsFollowFirstChild(t *testing.T) {
	e := New()
	l := NewLedger(1) // capture every chain
	e.AttachLedger(l)
	chain := []Class{ClassHostTx, ClassLinkDeliver, ClassFabricOptical, ClassLinkDeliver, ClassSwitchIngress}
	for i := 0; i < 3; i++ {
		cascade(e, chain, 100)
	}
	e.Run()
	l.Flush()

	if l.ChainsStarted() != 3 || l.ChainsFinalized() != 3 {
		t.Fatalf("chains started=%d finalized=%d, want 3/3", l.ChainsStarted(), l.ChainsFinalized())
	}
	got := l.Chains()
	if len(got) != 1 || got[0].Count != 3 || !reflect.DeepEqual(got[0].Classes, chain) {
		t.Fatalf("chains = %+v, want 3x %v", got, chain)
	}
}

func TestLedgerChainLengthCap(t *testing.T) {
	e := New()
	l := NewLedger(1)
	e.AttachLedger(l)
	long := make([]Class, maxChainLen+5)
	for i := range long {
		long[i] = ClassLinkDeliver
	}
	cascade(e, long, 10)
	e.Run()
	l.Flush()
	got := l.Chains()
	// The chain finalizes at the cap; with full sampling the tail of the
	// cascade is then re-captured as a fresh pair-started chain, so the
	// 21-event cascade yields exactly two signatures: the capped one and
	// the 6-long tail.
	if len(got) != 2 {
		t.Fatalf("chains = %+v, want the capped signature plus the re-sampled tail", got)
	}
	lens := []int{len(got[0].Classes), len(got[1].Classes)}
	if lens[0] > lens[1] {
		lens[0], lens[1] = lens[1], lens[0]
	}
	if lens[0] != len(long)-maxChainLen+1 || lens[1] != maxChainLen {
		t.Fatalf("chain lengths = %v, want [%d %d]", lens, len(long)-maxChainLen+1, maxChainLen)
	}
	if es := edgeOf(t, l, ClassLinkDeliver, ClassLinkDeliver); es.Count != uint64(len(long)-1) {
		t.Fatalf("self edge count = %d, want %d despite chain cap", es.Count, len(long)-1)
	}
}

func TestLedgerSamplingRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want uint64 }{
		{0, 1}, {1, 1}, {3, 4}, {64, 64}, {100, 128},
	} {
		if got := NewLedger(tc.in).SampleEvery(); got != tc.want {
			t.Fatalf("NewLedger(%d).SampleEvery() = %d, want %d", tc.in, got, tc.want)
		}
	}

	// Sampled capture: with a huge period only a seq=0 root starts a chain,
	// but edge aggregation stays complete.
	e := New()
	l := NewLedger(1 << 20)
	e.AttachLedger(l)
	for i := 0; i < 10; i++ {
		cascade(e, []Class{ClassHostTx, ClassLinkDeliver}, 50)
	}
	e.Run()
	l.Flush()
	if es := edgeOf(t, l, ClassHostTx, ClassLinkDeliver); es.Count != 10 {
		t.Fatalf("sampling must not thin edges: count = %d, want 10", es.Count)
	}
	if l.ChainsStarted() > 1 {
		t.Fatalf("chains started = %d, want at most the seq=0 sample", l.ChainsStarted())
	}
}

// ledgerScript is the determinism workload: seven overlapping linear
// cascades plus one unrelated root.
func ledgerScript(e *Engine) {
	for i := 0; i < 7; i++ {
		cascade(e, []Class{ClassHostTx, ClassLinkDeliver, ClassSwitchIngress, ClassSwitchDrain}, 300)
	}
	e.AtClass(5, ClassTelemetry, func() {})
	e.Run()
}

func TestLedgerDeterminism(t *testing.T) {
	run := func() *Ledger {
		e := New()
		l := NewLedger(2)
		e.AttachLedger(l)
		ledgerScript(e)
		l.Flush()
		return l
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a.Edges(), b.Edges()) {
		t.Fatal("edges differ across identical runs")
	}
	if !reflect.DeepEqual(a.Chains(), b.Chains()) {
		t.Fatal("chains differ across identical runs")
	}
	if !reflect.DeepEqual(a.Fanouts(), b.Fanouts()) {
		t.Fatal("fanouts differ across identical runs")
	}
	if !reflect.DeepEqual(a.AdjacentSameInstant(), b.AdjacentSameInstant()) {
		t.Fatal("adjacency differs across identical runs")
	}
	// With the profiler and the digest attached too, the ledger records
	// exactly what it records alone (and so do they).
	checkObserversCompose(t, ledgerScript)
}
