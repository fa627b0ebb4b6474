package core

import (
	"testing"
	"testing/quick"
	"time"
)

func TestCircuitCanonAndOther(t *testing.T) {
	c := Circuit{A: 3, PortA: 1, B: 1, PortB: 2, Slice: 0}
	cc := c.Canon()
	if cc.A != 1 || cc.B != 3 || cc.PortA != 2 || cc.PortB != 1 {
		t.Fatalf("canon = %v", cc)
	}
	if cc.Canon() != cc {
		t.Fatal("canon not idempotent")
	}
	peer, pp, ok := c.Other(3)
	if !ok || peer != 1 || pp != 2 {
		t.Fatalf("other(3) = %d,%d,%v", peer, pp, ok)
	}
	if _, _, ok := c.Other(9); ok {
		t.Fatal("other(9) should fail")
	}
	if p, ok := c.LocalPort(1); !ok || p != 2 {
		t.Fatalf("localport(1) = %d,%v", p, ok)
	}
}

// TestDiffCircuits: the diff ignores orientation and order, counts
// duplicates, and is empty exactly when the two multisets match.
func TestDiffCircuits(t *testing.T) {
	a := Circuit{A: 0, PortA: 0, B: 1, PortB: 0, Slice: 0}
	b := Circuit{A: 2, PortA: 1, B: 3, PortB: 0, Slice: 1}
	flip := Circuit{A: 1, PortA: 0, B: 0, PortB: 0, Slice: 0}
	if d := DiffCircuits([]Circuit{a, b}, []Circuit{b, flip}); len(d) != 0 {
		t.Fatalf("same set reordered and flipped: diff %v", d)
	}
	if d := DiffCircuits([]Circuit{a, a}, []Circuit{a}); len(d) != 1 || d[0] != a {
		t.Fatalf("duplicate dropped: diff %v", d)
	}
	moved := b
	moved.Slice = 0
	d := DiffCircuits([]Circuit{flip, b}, []Circuit{a, moved})
	if len(d) != 2 || d[0] != b || d[1] != moved {
		t.Fatalf("moved circuit: diff %v, want [%v %v]", d, b, moved)
	}
}

func TestScheduleSliceAt(t *testing.T) {
	s := &Schedule{NumSlices: 4, SliceDuration: 100 * time.Microsecond}
	cases := []struct {
		t    int64
		want Slice
	}{
		{0, 0}, {99_999, 0}, {100_000, 1}, {399_999, 3}, {400_000, 0}, {750_000, 3},
	}
	for _, c := range cases {
		if got := s.SliceAt(c.t); got != c.want {
			t.Errorf("SliceAt(%d) = %d, want %d", c.t, got, c.want)
		}
	}
	// Degenerate single-slice schedule.
	one := &Schedule{NumSlices: 1, SliceDuration: time.Microsecond}
	if one.SliceAt(12345) != 0 {
		t.Error("single-slice schedule should always be slice 0")
	}
}

func TestScheduleSliceStart(t *testing.T) {
	s := &Schedule{NumSlices: 4, SliceDuration: 100 * time.Microsecond}
	// At t=50µs (inside slice 0), the next start of slice 2 is 200µs.
	if got := s.SliceStart(50_000, 2); got != 200_000 {
		t.Fatalf("SliceStart = %d, want 200000", got)
	}
	// At t=250µs (inside slice 2), slice 2's current occurrence started at 200µs.
	if got := s.SliceStart(250_000, 2); got != 200_000 {
		t.Fatalf("SliceStart = %d, want 200000", got)
	}
	// At t=350µs (inside slice 3), the next slice 2 is next cycle: 600µs.
	if got := s.SliceStart(350_000, 2); got != 600_000 {
		t.Fatalf("SliceStart = %d, want 600000", got)
	}
}

// Property: SliceStart(t, s) always returns a time whose SliceAt is s, and
// that time is never more than one cycle in the future.
func TestSliceStartProperty(t *testing.T) {
	s := &Schedule{NumSlices: 8, SliceDuration: 20 * time.Microsecond}
	f := func(traw uint32, slraw uint8) bool {
		tt := int64(traw)
		sl := Slice(slraw % 8)
		start := s.SliceStart(tt, sl)
		if s.SliceAt(start) != sl {
			return false
		}
		cyc := int64(s.CycleDuration())
		return start >= tt-cyc && start <= tt+cyc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestSlicesUntil(t *testing.T) {
	s := &Schedule{NumSlices: 8, SliceDuration: time.Microsecond}
	cases := []struct {
		a, d Slice
		want int
	}{
		{0, 0, 0}, {0, 2, 2}, {6, 1, 3}, {7, 0, 1}, {3, 3, 0},
		{WildcardSlice, 2, 0}, {1, WildcardSlice, 0},
	}
	for _, c := range cases {
		if got := s.SlicesUntil(c.a, c.d); got != c.want {
			t.Errorf("SlicesUntil(%d,%d) = %d, want %d", c.a, c.d, got, c.want)
		}
	}
}

func TestScheduleValidate(t *testing.T) {
	good := &Schedule{NumSlices: 2, SliceDuration: time.Microsecond, Circuits: []Circuit{
		{A: 0, PortA: 0, B: 1, PortB: 0, Slice: 0},
		{A: 0, PortA: 0, B: 2, PortB: 0, Slice: 1},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
	dup := &Schedule{NumSlices: 2, SliceDuration: time.Microsecond, Circuits: []Circuit{
		{A: 0, PortA: 0, B: 1, PortB: 0, Slice: 0},
		{A: 0, PortA: 0, B: 2, PortB: 0, Slice: 0}, // same port, same slice
	}}
	if err := dup.Validate(); err == nil {
		t.Fatal("port conflict not caught")
	}
	self := &Schedule{NumSlices: 1, Circuits: []Circuit{{A: 1, PortA: 0, B: 1, PortB: 1, Slice: 0}}}
	if err := self.Validate(); err == nil {
		t.Fatal("self circuit not caught")
	}
	oor := &Schedule{NumSlices: 2, Circuits: []Circuit{{A: 0, PortA: 0, B: 1, PortB: 0, Slice: 5}}}
	if err := oor.Validate(); err == nil {
		t.Fatal("out-of-range slice not caught")
	}
}

func TestPathValidate(t *testing.T) {
	ok := &Path{Src: 0, Dst: 3, TS: 0, Hops: []Hop{{Node: 0, Egress: 1, DepSlice: 0}, {Node: 1, Egress: 2, DepSlice: 1}}}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid path rejected: %v", err)
	}
	empty := &Path{Src: 0, Dst: 3}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty path accepted")
	}
	wrongStart := &Path{Src: 0, Dst: 3, TS: WildcardSlice, Hops: []Hop{{Node: 2, Egress: 1, DepSlice: WildcardSlice}}}
	if err := wrongStart.Validate(); err == nil {
		t.Fatal("wrong first hop accepted")
	}
	halfScheduled := &Path{Src: 0, Dst: 3, TS: 0, Hops: []Hop{{Node: 0, Egress: 1, DepSlice: WildcardSlice}}}
	if err := halfScheduled.Validate(); err == nil {
		t.Fatal("wildcard departure in time-based path accepted")
	}
}

func TestConnIndex(t *testing.T) {
	s := &Schedule{NumSlices: 3, SliceDuration: time.Microsecond, Circuits: []Circuit{
		{A: 0, PortA: 0, B: 1, PortB: 0, Slice: 0},
		{A: 0, PortA: 0, B: 2, PortB: 0, Slice: 1},
		{A: 1, PortA: 0, B: 2, PortB: 1, Slice: 1},
		{A: 0, PortA: 1, B: 3, PortB: 0, Slice: WildcardSlice}, // static circuit
	}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	ix := NewConnIndex(s)
	if got := ix.Neighbors(0, 0); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("neighbors(0, ts0) = %v, want [1 3]", got)
	}
	if got := ix.Neighbors(0, 1); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("neighbors(0, ts1) = %v, want [2 3]", got)
	}
	if got := ix.Neighbors(0, WildcardSlice); len(got) != 1 || got[0] != 3 {
		t.Fatalf("static neighbors(0) = %v, want [3]", got)
	}
	if got := ix.Neighbors(0, 2); len(got) != 1 || got[0] != 3 {
		t.Fatalf("neighbors(0, ts2) = %v, want [3]", got)
	}
	if _, ok := ix.CircuitBetween(0, 2, 0); ok {
		t.Fatal("phantom circuit 0-2 in slice 0")
	}
	if c, ok := ix.CircuitBetween(0, 2, 1); !ok || c.Slice != 1 {
		t.Fatal("missing circuit 0-2 in slice 1")
	}
	if p, ok := ix.EgressPort(2, 1, 1); !ok || p != 1 {
		t.Fatalf("egress(2->1, ts1) = %d, %v", p, ok)
	}
	if n := ix.Nodes(); len(n) != 4 {
		t.Fatalf("nodes = %v", n)
	}
}

func TestFlowKeyHashAndReverse(t *testing.T) {
	k := FlowKey{SrcHost: 1, DstHost: 2, SrcPort: 99, DstPort: 80, Proto: ProtoTCP}
	if k.Reverse().Reverse() != k {
		t.Fatal("reverse not involutive")
	}
	if k.Hash() == k.Reverse().Hash() {
		t.Fatal("hash should be direction-sensitive")
	}
	k2 := k
	k2.SrcPort = 100
	if k.Hash() == k2.Hash() {
		t.Fatal("hash should depend on ports")
	}
}

func TestPacketSourceRoute(t *testing.T) {
	p := &Packet{SR: []SRHop{{Egress: 1, DepSlice: 0}, {Egress: 2, DepSlice: 1}}}
	h1, ok := p.NextSR()
	if !ok || h1.Egress != 1 {
		t.Fatalf("first SR hop = %v, %v", h1, ok)
	}
	h2, ok := p.NextSR()
	if !ok || h2.Egress != 2 || h2.DepSlice != 1 {
		t.Fatalf("second SR hop = %v, %v", h2, ok)
	}
	if _, ok := p.NextSR(); ok {
		t.Fatal("exhausted SR should report !ok")
	}
}

func TestTMDoublify(t *testing.T) {
	m := NewTM(4)
	m.Add(0, 1, 30)
	m.Add(1, 2, 10)
	m.Add(2, 3, 20)
	m.Add(3, 0, 5)
	d, err := m.Doublify()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		var r, c float64
		for j := 0; j < 4; j++ {
			r += d[i][j]
			c += d[j][i]
		}
		if r < 0.999 || r > 1.001 || c < 0.999 || c > 1.001 {
			t.Fatalf("row/col %d sums %g/%g", i, r, c)
		}
	}
	// Zero matrix must also doublify (pure padding).
	z := NewTM(3)
	if _, err := z.Doublify(); err != nil {
		t.Fatalf("zero TM: %v", err)
	}
}

func TestTMBasics(t *testing.T) {
	m := NewTM(3)
	m.Add(0, 1, 5)
	m.Add(1, 1, 100) // self demand ignored
	m.Add(-1, 2, 7)  // out of range ignored
	if m.Total() != 5 {
		t.Fatalf("total = %g", m.Total())
	}
	c := m.Clone()
	c.Add(0, 1, 1)
	if m[0][1] != 5 {
		t.Fatal("clone aliases parent")
	}
}
