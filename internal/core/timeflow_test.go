package core

import (
	"math"
	"testing"
	"testing/quick"
)

// The examples of Fig. 3 rendered as tests: direct path ①, multi-hop path
// ②, wildcard (classic flow table) reduction, and the source-routing
// equivalent.

func TestLookupDirectCircuit(t *testing.T) {
	// Fig. 3 (a): N0's table for the direct path — packet arriving ts=0
	// for N3 departs ts=2 on port 1.
	tab := NewTable()
	if err := tab.Add(Entry{
		Match:   Match{ArrSlice: 0, Src: 0, Dst: 3},
		Actions: []Action{{Egress: 1, DepSlice: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	r, ok := tab.Lookup(0, 0, 3, 0, 0)
	if !ok {
		t.Fatal("lookup missed")
	}
	if r.Egress != 1 || r.DepSlice != 2 {
		t.Fatalf("got egress=%d dep=%d, want 1,2", r.Egress, r.DepSlice)
	}
	// A packet in a different arrival slice must not match.
	if _, ok := tab.Lookup(1, 0, 3, 0, 0); ok {
		t.Fatal("arrival-slice mismatch should miss")
	}
}

func TestLookupMultiHop(t *testing.T) {
	// Fig. 3 (b): per-hop tables for path ② — N0 forwards immediately at
	// ts=0 toward N1; N1 holds to ts=1 toward N3.
	n0, n1 := NewTable(), NewTable()
	mustAdd(t, n0, Entry{Match: Match{ArrSlice: 0, Src: 0, Dst: 3}, Actions: []Action{{Egress: 1, DepSlice: 0}}})
	mustAdd(t, n1, Entry{Match: Match{ArrSlice: 0, Src: 0, Dst: 3}, Actions: []Action{{Egress: 2, DepSlice: 1}}})

	r0, ok := n0.Lookup(0, 0, 3, 0, 0)
	if !ok || r0.Egress != 1 || r0.DepSlice != 0 {
		t.Fatalf("N0 lookup = %+v ok=%v", r0, ok)
	}
	r1, ok := n1.Lookup(0, 0, 3, 0, 0)
	if !ok || r1.Egress != 2 || r1.DepSlice != 1 {
		t.Fatalf("N1 lookup = %+v ok=%v", r1, ok)
	}
}

func TestLookupWildcardReducesToFlowTable(t *testing.T) {
	// Fig. 3 (c): wildcard time fields — matches any arrival slice,
	// departs immediately. This is the classic flow table.
	tab := NewTable()
	mustAdd(t, tab, Entry{
		Match:   Match{ArrSlice: WildcardSlice, Src: NoNode, Dst: 3},
		Actions: []Action{{Egress: 2, DepSlice: WildcardSlice}},
	})
	for _, arr := range []Slice{0, 1, 5, 17} {
		r, ok := tab.Lookup(arr, 0, 3, 0, 0)
		if !ok {
			t.Fatalf("arr=%d missed", arr)
		}
		if r.Egress != 2 || !r.DepSlice.IsWildcard() {
			t.Fatalf("arr=%d got %+v", arr, r)
		}
	}
	if _, ok := tab.Lookup(0, 0, 4, 0, 0); ok {
		t.Fatal("dst mismatch should miss")
	}
}

func TestLookupSourceRouting(t *testing.T) {
	// Fig. 3 (d): the source entry carries the full hop sequence
	// <1,0><2,1>; the head must agree with the action fields.
	tab := NewTable()
	sr := []SRHop{{Egress: 1, DepSlice: 0}, {Egress: 2, DepSlice: 1}}
	mustAdd(t, tab, Entry{
		Match:   Match{ArrSlice: 0, Src: 0, Dst: 3},
		Actions: []Action{{Egress: 1, DepSlice: 0, SourceRoute: sr}},
	})
	r, ok := tab.Lookup(0, 0, 3, 0, 0)
	if !ok {
		t.Fatal("missed")
	}
	if len(r.SourceRoute) != 2 || r.SourceRoute[1] != (SRHop{Egress: 2, DepSlice: 1}) {
		t.Fatalf("source route = %v", r.SourceRoute)
	}
}

func TestAddRejectsBadEntries(t *testing.T) {
	tab := NewTable()
	if err := tab.Add(Entry{Match: Match{Dst: 1}}); err == nil {
		t.Error("no actions accepted")
	}
	if err := tab.Add(Entry{Match: Match{Dst: 1}, Actions: []Action{{Egress: NoPort}}}); err == nil {
		t.Error("portless action accepted")
	}
	if err := tab.Add(Entry{Match: Match{Dst: 1},
		Actions: []Action{{Egress: 1}, {Egress: 2}}}); err == nil {
		t.Error("multipath group without mode accepted")
	}
	if err := tab.Add(Entry{Match: Match{Dst: 1},
		Actions: []Action{{Egress: 1, Weight: -2}}}); err == nil {
		t.Error("negative weight accepted")
	}
	if err := tab.Add(Entry{Match: Match{Dst: 1},
		Actions: []Action{{Egress: 1, DepSlice: 0, SourceRoute: []SRHop{{Egress: 9, DepSlice: 0}}}}}); err == nil {
		t.Error("disagreeing source-route head accepted")
	}
}

func TestPriorityAndSpecificity(t *testing.T) {
	tab := NewTable()
	// Low-priority default route plus a high-priority update on top — the
	// hardware reconfiguration pattern of §4.3 ("higher-priority routes
	// atop existing ones"), which Net.Add can still install.
	mustAdd(t, tab, Entry{Priority: 0,
		Match:   Match{ArrSlice: WildcardSlice, Src: NoNode, Dst: 3},
		Actions: []Action{{Egress: 1, DepSlice: WildcardSlice}}})
	mustAdd(t, tab, Entry{Priority: 10,
		Match:   Match{ArrSlice: WildcardSlice, Src: NoNode, Dst: 3},
		Actions: []Action{{Egress: 7, DepSlice: WildcardSlice}}})
	if r, _ := tab.Lookup(4, 0, 3, 0, 0); r.Egress != 7 {
		t.Fatalf("priority not honored: egress=%d", r.Egress)
	}

	// Equal priority: the more specific (fewer wildcards) entry wins.
	tab2 := NewTable()
	mustAdd(t, tab2, Entry{Match: Match{ArrSlice: WildcardSlice, Src: NoNode, Dst: 5},
		Actions: []Action{{Egress: 1, DepSlice: WildcardSlice}}})
	mustAdd(t, tab2, Entry{Match: Match{ArrSlice: 2, Src: NoNode, Dst: 5},
		Actions: []Action{{Egress: 2, DepSlice: 3}}})
	if r, _ := tab2.Lookup(2, 0, 5, 0, 0); r.Egress != 2 {
		t.Fatalf("specificity not honored: egress=%d", r.Egress)
	}
	if r, _ := tab2.Lookup(1, 0, 5, 0, 0); r.Egress != 1 {
		t.Fatalf("wildcard fallback broken: egress=%d", r.Egress)
	}
}

func TestWildcardDstEntry(t *testing.T) {
	tab := NewTable()
	mustAdd(t, tab, Entry{Match: Match{ArrSlice: WildcardSlice, Src: NoNode, Dst: NoNode},
		Actions: []Action{{Egress: 9, DepSlice: WildcardSlice}}})
	for _, dst := range []NodeID{0, 3, 100} {
		if r, ok := tab.Lookup(0, 1, dst, 0, 0); !ok || r.Egress != 9 {
			t.Fatalf("default route broken for dst=%d", dst)
		}
	}
}

func TestMultipathPacketSpraysUniformly(t *testing.T) {
	tab := NewTable()
	mustAdd(t, tab, Entry{
		Match:   Match{ArrSlice: WildcardSlice, Src: NoNode, Dst: 1},
		Actions: []Action{{Egress: 0}, {Egress: 1}, {Egress: 2}, {Egress: 3}},
		Mode:    MultipathPacket,
	})
	counts := make(map[PortID]int)
	for h := uint64(0); h < 4000; h++ {
		r, _ := tab.Lookup(0, 0, 1, h*2654435761, 0)
		counts[r.Egress]++
	}
	for p := PortID(0); p < 4; p++ {
		if c := counts[p]; c < 800 || c > 1200 {
			t.Fatalf("port %d got %d of 4000 packets, want ~1000", p, c)
		}
	}
}

func TestMultipathFlowIsSticky(t *testing.T) {
	tab := NewTable()
	mustAdd(t, tab, Entry{
		Match:   Match{ArrSlice: WildcardSlice, Src: NoNode, Dst: 1},
		Actions: []Action{{Egress: 0}, {Egress: 1}, {Egress: 2}},
		Mode:    MultipathFlow,
	})
	flow := FlowKey{SrcHost: 1, DstHost: 2, SrcPort: 1000, DstPort: 80, Proto: ProtoTCP}
	first, _ := tab.Lookup(0, 0, 1, 123, flow.Hash())
	for pkt := uint64(0); pkt < 100; pkt++ {
		r, _ := tab.Lookup(0, 0, 1, pkt*77, flow.Hash())
		if r.Egress != first.Egress {
			t.Fatalf("flow moved ports: %d then %d", first.Egress, r.Egress)
		}
	}
}

func TestWeightedMultipathSplit(t *testing.T) {
	tab := NewTable()
	mustAdd(t, tab, Entry{
		Match:   Match{ArrSlice: WildcardSlice, Src: NoNode, Dst: 1},
		Actions: []Action{{Egress: 0, Weight: 3}, {Egress: 1, Weight: 1}},
		Mode:    MultipathPacket,
	})
	counts := make(map[PortID]int)
	const n = 20000
	for h := uint64(0); h < n; h++ {
		r, _ := tab.Lookup(0, 0, 1, h*0x9e3779b97f4a7c15, 0)
		counts[r.Egress]++
	}
	frac := float64(counts[0]) / n
	if math.Abs(frac-0.75) > 0.03 {
		t.Fatalf("weighted split = %.3f, want ~0.75", frac)
	}
}

// Property: a lookup never returns an entry whose match does not cover the
// packet, and whenever a covering entry exists the lookup finds one.
func TestLookupSoundAndComplete(t *testing.T) {
	f := func(entriesRaw []struct {
		Arr  int8
		Src  int8
		Dst  int8
		Prio uint8
	}, arr uint8, src uint8, dst uint8) bool {
		tab := NewTable()
		covering := false
		a, s, d := Slice(arr%8), NodeID(src%8), NodeID(dst%8)
		for _, er := range entriesRaw {
			m := Match{
				ArrSlice: Slice(er.Arr%9) - 1, // -1..7, -1 = wildcard
				Src:      NodeID(er.Src%9) - 1,
				Dst:      NodeID(er.Dst%9) - 1,
			}
			e := Entry{Priority: int(er.Prio % 4), Match: m,
				Actions: []Action{{Egress: 1, DepSlice: WildcardSlice}}}
			if tab.Add(e) != nil {
				return false
			}
			if m.Covers(a, s, d) {
				covering = true
			}
		}
		r, ok := tab.Lookup(a, s, d, 0, 0)
		if ok != covering {
			return false
		}
		return !ok || r.Entry.Match.Covers(a, s, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestClearAndLen(t *testing.T) {
	tab := NewTable()
	mustAdd(t, tab, Entry{Match: Match{Dst: 1}, Actions: []Action{{Egress: 1}}})
	mustAdd(t, tab, Entry{Match: Match{Dst: NoNode, Src: NoNode, ArrSlice: WildcardSlice},
		Actions: []Action{{Egress: 2}}})
	if tab.Len() != 2 {
		t.Fatalf("len=%d", tab.Len())
	}
	if got := len(tab.Entries()); got != 2 {
		t.Fatalf("entries=%d", got)
	}
}

func mustAdd(t *testing.T, tab *Table, e Entry) {
	t.Helper()
	if err := tab.Add(e); err != nil {
		t.Fatal(err)
	}
}
