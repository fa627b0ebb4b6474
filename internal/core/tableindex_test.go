package core

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// refTable is the time-flow table's lookup before the dense index: entries
// kept per destination in (priority, specificity, insertion) order, a
// linear Covers scan of byDst[dst] and of the wildcard-dst list, and the
// better of the two first hits. It is kept here as the oracle the index
// must reproduce.
type refTable struct {
	byDst  map[NodeID][]*Entry
	anyDst []*Entry
}

func newRefTable() *refTable { return &refTable{byDst: make(map[NodeID][]*Entry)} }

// add inserts an entry already installed in a Table (so its seq is set).
func (t *refTable) add(e *Entry) {
	if e.Match.Dst == NoNode {
		t.anyDst = refInsertSorted(t.anyDst, e)
	} else {
		t.byDst[e.Match.Dst] = refInsertSorted(t.byDst[e.Match.Dst], e)
	}
}

func refInsertSorted(s []*Entry, e *Entry) []*Entry {
	i := sort.Search(len(s), func(i int) bool { return refEntryLess(e, s[i]) })
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = e
	return s
}

func refEntryLess(a, b *Entry) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	if wa, wb := a.Match.Wildcards(), b.Match.Wildcards(); wa != wb {
		return wa < wb
	}
	return a.seq < b.seq
}

func (t *refTable) lookup(arr Slice, src, dst NodeID, pktHash, flowHash uint64) (LookupResult, bool) {
	best := refMatch(t.byDst[dst], arr, src, dst)
	if alt := refMatch(t.anyDst, arr, src, dst); alt != nil && (best == nil || refEntryLess(alt, best)) {
		best = alt
	}
	if best == nil {
		return LookupResult{}, false
	}
	a := selectAction(best, pktHash, flowHash)
	return LookupResult{Egress: a.Egress, DepSlice: a.DepSlice, SourceRoute: a.SourceRoute, Entry: best}, true
}

func refMatch(list []*Entry, arr Slice, src, dst NodeID) *Entry {
	for _, e := range list {
		if e.Match.Covers(arr, src, dst) {
			return e
		}
	}
	return nil
}

// keyPools are the node-ID and arrival-slice vocabularies one random
// table draws from: dense small IDs, negative IDs (NoNode is the only
// wildcard), and sparse IDs up to the int32 extremes.
var keyPools = []struct {
	nodes []NodeID
	arrs  []Slice
}{
	{nodes: []NodeID{0, 1, 2, 3, 4, 5, 6, 7}, arrs: []Slice{0, 1, 2, 3, 4, 5}},
	{nodes: []NodeID{-9, -5, -2, 0, 3, 4}, arrs: []Slice{0, 2, 7}},
	{nodes: []NodeID{0, 17, 1 << 20, math.MaxInt32, math.MinInt32, -1 << 30, 5},
		arrs: []Slice{0, 1, 1 << 24, math.MaxInt32}},
	{nodes: []NodeID{3}, arrs: []Slice{9}},
}

// randomEntry draws an entry whose every match field may be a wildcard,
// with mixed priorities and single, multipath and weighted action groups,
// some of them source routes.
func randomEntry(rng *rand.Rand, nodes []NodeID, arrs []Slice) Entry {
	pick := func() NodeID {
		if rng.Intn(4) == 0 {
			return NoNode
		}
		return nodes[rng.Intn(len(nodes))]
	}
	m := Match{ArrSlice: WildcardSlice, Src: pick(), Dst: pick()}
	if rng.Intn(4) != 0 {
		m.ArrSlice = arrs[rng.Intn(len(arrs))]
	} else if rng.Intn(2) == 0 {
		m.ArrSlice = -3 // any negative slice is a wildcard
	}
	e := Entry{Priority: rng.Intn(3) - 1, Match: m}
	n := 1
	if rng.Intn(3) == 0 {
		n = 2 + rng.Intn(3)
		e.Mode = MultipathPacket
		if rng.Intn(2) == 0 {
			e.Mode = MultipathFlow
		}
	}
	for i := 0; i < n; i++ {
		a := Action{Egress: PortID(rng.Intn(8)), DepSlice: Slice(rng.Intn(6) - 1)}
		if rng.Intn(3) == 0 {
			a.Weight = float64(rng.Intn(4))
		}
		if rng.Intn(4) == 0 {
			a.SourceRoute = []SRHop{{Egress: a.Egress, DepSlice: a.DepSlice}, {Egress: 1, DepSlice: 2}}
		}
		e.Actions = append(e.Actions, a)
	}
	return e
}

// TestIndexMatchesScan is the differential test of the dense index: on
// random tables it must return exactly the old scan's result — the same
// entry object, egress, departure slice and source route — for keys each
// entry names and for keys none does, including lookups interleaved with
// Adds, and Entries must list the scan's order.
func TestIndexMatchesScan(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pool := keyPools[rng.Intn(len(keyPools))]
		qNodes := append([]NodeID{NoNode, 1234, -77}, pool.nodes...)
		qArrs := append([]Slice{WildcardSlice, 11, 4321}, pool.arrs...)
		tab, ref := NewTable(), newRefTable()
		for round := 0; round < 3; round++ {
			for i := rng.Intn(40); i > 0; i-- {
				if err := tab.Add(randomEntry(rng, pool.nodes, pool.arrs)); err != nil {
					t.Log(err)
					return false
				}
				ref.add(tab.entries[len(tab.entries)-1])
			}
			for q := 0; q < 200; q++ {
				arr := qArrs[rng.Intn(len(qArrs))]
				src, dst := qNodes[rng.Intn(len(qNodes))], qNodes[rng.Intn(len(qNodes))]
				ph, fh := rng.Uint64(), rng.Uint64()
				got, gok := tab.Lookup(arr, src, dst, ph, fh)
				want, wok := ref.lookup(arr, src, dst, ph, fh)
				if gok != wok || got.Entry != want.Entry || got.Egress != want.Egress ||
					got.DepSlice != want.DepSlice || !reflect.DeepEqual(got.SourceRoute, want.SourceRoute) {
					t.Logf("seed %d round %d: Lookup(%d, %d, %d) = %+v %v, scan %+v %v",
						seed, round, arr, src, dst, got, gok, want, wok)
					return false
				}
			}
		}
		var scan []*Entry
		for _, l := range ref.byDst {
			scan = append(scan, l...)
		}
		scan = append(scan, ref.anyDst...)
		sort.Slice(scan, func(i, j int) bool { return refEntryLess(scan[i], scan[j]) })
		if got := tab.Entries(); !reflect.DeepEqual(got, scan) {
			t.Logf("seed %d: Entries order differs from the scan's", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// TestIndexCompiledShape pins the index layout on a per-hop table: a
// group per named (dst, src) pair, each spanning only its own arrival
// slices, so cells grow with the entries, not with nodes² × slices.
func TestIndexCompiledShape(t *testing.T) {
	tab := NewTable()
	for d := NodeID(1); d < 4; d++ {
		for arr := Slice(0); arr < 3; arr++ {
			mustAdd(t, tab, Entry{Match: Match{ArrSlice: arr, Src: 0, Dst: d},
				Actions: []Action{{Egress: PortID(d), DepSlice: arr}}})
		}
		// A transit entry: one arrival slice from another source.
		mustAdd(t, tab, Entry{Match: Match{ArrSlice: 1, Src: d, Dst: (d % 3) + 1},
			Actions: []Action{{Egress: 7, DepSlice: 2}}})
	}
	if _, ok := tab.Lookup(0, 0, 1, 0, 0); !ok {
		t.Fatal("lookup missed")
	}
	x := &tab.ix
	if x.nodes.n != 4 || x.arrs.n != 3 || len(x.rows) != 5 {
		t.Fatalf("key spaces: %d node ranks, %d arrival ranks, %d rows", x.nodes.n, x.arrs.n, len(x.rows))
	}
	// Rows 1..3 each hold src 0 (three slices) and one transit src (one
	// slice), plus the other-src group; cells are entries plus one
	// other-slice cell per group.
	wantCells := len(tab.entries) + len(x.groups)
	if len(x.cells) != wantCells {
		t.Fatalf("cells = %d, want %d (entries + one per group)", len(x.cells), wantCells)
	}
	for _, c := range x.cells {
		if c.e != nil && !c.single {
			t.Fatal("a single-action cell was not resolved inline")
		}
	}
}
