package core

import (
	"math"
	"slices"
)

// tableIndex is a Table's compiled match structure. A lookup ranks its dst
// and src in nodes and its arrival slice in arrs, then reads three levels:
// the row of dst, the group of src in that row, and the cell of the
// arrival slice in that group. Every level spans only the keys some entry
// names and ends in one "other" slot for all remaining keys, so wildcard
// fields cost nothing at lookup time and every lookup is the same fixed
// number of array reads.
//
// Each cell holds the entry today's priority order picks for its (dst,
// src, arrival slice): compile visits the entries best-first and fills
// every cell an entry covers that no better entry filled.
type tableIndex struct {
	nodes  keySpace // concrete Src and Dst values
	arrs   keySpace // concrete ArrSlice values
	rows   []tableRow
	groups []tableGroup
	cells  []tableCell
}

// tableRow covers one dst rank (the last row: every dst no entry names).
// Src ranks [srcLo, srcLo+nSrc) have a group each, at groups+offset; the
// group at groups+nSrc serves all other srcs.
type tableRow struct {
	srcLo, nSrc, groups int32
}

// tableGroup covers one (dst, src) pair: arrival ranks [arrLo, arrLo+nArr)
// have a cell each, at cells+offset; the cell at cells+nArr serves all
// other arrival slices.
type tableGroup struct {
	arrLo, nArr, cells int32
}

// tableCell is the resolved lookup for one (dst, src, arrival slice).
// When the entry has a single action without a source route, the cell
// carries that action, so the common lookup never reads the entry.
type tableCell struct {
	e      *Entry // nil: no entry covers the cell
	dep    Slice
	egress PortID
	single bool
}

// keySpace ranks int32 keys into [0, n); rank n stands for every key no
// entry names. Keys spanning a range not much wider than their count rank
// as key-lo (gaps rank like unnamed keys would resolve); sparser key sets
// keep their sorted distinct values and rank by binary search.
type keySpace struct {
	lo, n  int32
	sparse []int32
}

func newKeySpace(keys []int32) keySpace {
	if len(keys) == 0 {
		return keySpace{}
	}
	lo, hi := slices.Min(keys), slices.Max(keys)
	if span := int64(hi) - int64(lo) + 1; span <= 2*int64(len(keys))+64 {
		return keySpace{lo: lo, n: int32(span)}
	}
	slices.Sort(keys)
	keys = slices.Clone(slices.Compact(keys))
	return keySpace{n: int32(len(keys)), sparse: keys}
}

func (k *keySpace) rank(x int32) int32 {
	if k.sparse == nil {
		// Unsigned wraparound sends keys below lo past n as well.
		if r := uint32(x) - uint32(k.lo); r < uint32(k.n) {
			return int32(r)
		}
		return k.n
	}
	if i, ok := slices.BinarySearch(k.sparse, x); ok {
		return int32(i)
	}
	return k.n
}

// slot returns rank r's offset in [lo, lo+n), or n when r lies outside.
func slot(r, lo, n int32) int32 {
	if o := r - lo; uint32(o) < uint32(n) {
		return o
	}
	return n
}

func (x *tableIndex) find(arr Slice, src, dst NodeID) *tableCell {
	r := &x.rows[x.nodes.rank(int32(dst))]
	g := &x.groups[r.groups+slot(x.nodes.rank(int32(src)), r.srcLo, r.nSrc)]
	return &x.cells[g.cells+slot(x.arrs.rank(int32(arr)), g.arrLo, g.nArr)]
}

// entryRanks is an entry's match in rank terms; -1 marks a wildcard.
type entryRanks struct{ dst, src, arr int32 }

// compile sorts the entries best-first and rebuilds the index from them.
func (t *Table) compile() {
	t.sort()
	es := t.entries
	nodeKeys := make([]int32, 0, 2*len(es))
	arrKeys := make([]int32, 0, len(es))
	for _, e := range es {
		if m := e.Match; m.Src != NoNode {
			nodeKeys = append(nodeKeys, int32(m.Src))
		}
		if m := e.Match; m.Dst != NoNode {
			nodeKeys = append(nodeKeys, int32(m.Dst))
		}
		if a := e.Match.ArrSlice; !a.IsWildcard() {
			arrKeys = append(arrKeys, int32(a))
		}
	}
	x := tableIndex{nodes: newKeySpace(nodeKeys), arrs: newKeySpace(arrKeys)}
	ranks := make([]entryRanks, len(es))
	for i, e := range es {
		k := entryRanks{-1, -1, -1}
		if m := e.Match; m.Dst != NoNode {
			k.dst = x.nodes.rank(int32(m.Dst))
		}
		if m := e.Match; m.Src != NoNode {
			k.src = x.nodes.rank(int32(m.Src))
		}
		if a := e.Match.ArrSlice; !a.IsWildcard() {
			k.arr = x.arrs.rank(int32(a))
		}
		ranks[i] = k
	}

	// Rows: each spans the concrete srcs of the entries it holds — its
	// own dst's and the wildcard-dst entries, which every row holds.
	nr := x.nodes.n + 1
	x.rows = make([]tableRow, nr)
	lo, hi := spans(int(nr))
	wlo, whi := int32(math.MaxInt32), int32(-1)
	for _, k := range ranks {
		switch {
		case k.src < 0:
		case k.dst < 0:
			wlo, whi = min(wlo, k.src), max(whi, k.src)
		default:
			lo[k.dst], hi[k.dst] = min(lo[k.dst], k.src), max(hi[k.dst], k.src)
		}
	}
	var ng int32
	for i := range x.rows {
		l, h := min(lo[i], wlo), max(hi[i], whi)
		r := tableRow{groups: ng}
		if h >= l {
			r.srcLo, r.nSrc = l, h-l+1
		}
		x.rows[i] = r
		ng += r.nSrc + 1
	}

	// Groups: each spans the concrete arrival slices of the entries
	// covering it.
	x.groups = make([]tableGroup, ng)
	lo, hi = spans(int(ng))
	for _, k := range ranks {
		if k.arr >= 0 {
			x.eachGroup(k, func(g int32) { lo[g], hi[g] = min(lo[g], k.arr), max(hi[g], k.arr) })
		}
	}
	var nc int32
	for i := range x.groups {
		g := tableGroup{cells: nc}
		if hi[i] >= lo[i] {
			g.arrLo, g.nArr = lo[i], hi[i]-lo[i]+1
		}
		x.groups[i] = g
		nc += g.nArr + 1
	}

	// Cells: best-first, each entry fills the cells it covers that no
	// better entry filled.
	x.cells = make([]tableCell, nc)
	for i, e := range es {
		k := ranks[i]
		c := tableCell{e: e}
		if a := e.Actions[0]; len(e.Actions) == 1 && a.SourceRoute == nil {
			c.egress, c.dep, c.single = a.Egress, a.DepSlice, true
		}
		x.eachGroup(k, func(gi int32) {
			g := &x.groups[gi]
			first, last := g.cells, g.cells+g.nArr
			if k.arr >= 0 {
				first = g.cells + k.arr - g.arrLo
				last = first
			}
			for ci := first; ci <= last; ci++ {
				if x.cells[ci].e == nil {
					x.cells[ci] = c
				}
			}
		})
	}
	t.ix, t.built = x, true
}

// eachGroup calls f with every group an entry of ranks k covers: its
// dst's row (every row for a wildcard dst), and in each row its src's
// group (every group, the other-src group included, for a wildcard src).
// A concrete src always lies inside the row's span, which was built from
// the same entries.
func (x *tableIndex) eachGroup(k entryRanks, f func(g int32)) {
	first, last := k.dst, k.dst
	if k.dst < 0 {
		first, last = 0, int32(len(x.rows))-1
	}
	for ri := first; ri <= last; ri++ {
		r := &x.rows[ri]
		if k.src >= 0 {
			f(r.groups + k.src - r.srcLo)
			continue
		}
		for g := r.groups; g <= r.groups+r.nSrc; g++ {
			f(g)
		}
	}
}

// spans returns n empty [lo, hi] rank ranges to widen.
func spans(n int) (lo, hi []int32) {
	lo, hi = make([]int32, n), make([]int32, n)
	for i := range lo {
		lo[i], hi[i] = math.MaxInt32, -1
	}
	return lo, hi
}
