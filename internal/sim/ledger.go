package sim

import "sort"

// This file is the event-causality ledger: the engine-side half of the
// "engine observatory". When attached, every scheduled event optionally
// records which event scheduled it — its parent's handler class — so the
// simulator's own event flow becomes observable the same way the simulated
// network is: parent→child class edges with delay statistics, sampled
// whole chains ("host.tx → link.deliver → switch.ingress → …"), per-class
// fan-out (how many children one dispatch schedules), and counts of
// same-instant (t, seq)-adjacent dispatch pairs. Together these are the
// evidence base for event merging (ROADMAP item 4): an edge whose parent
// class schedules exactly one child per dispatch is mergeable — the parent
// can compute the child's time directly and save one event per occurrence.
//
// The ledger is an observer on the engine's instrumentation seam
// (observer.go): a detached engine pays nothing beyond the seam's nil
// checks. Edge/fan-out/adjacency aggregation is a few array increments per
// event when attached; only chain capture is sampled — the events that
// carry a sampled chain are tracked by sequence number in a map, so its
// cost scales with the sampling rate.

// maxChainLen caps a sampled chain's recorded length. Event cascades are
// self-sustaining (each handler schedules its successors, forever), so
// chains are finalized — counted and recycled — once they reach the cap or
// die out (a dispatch that schedules no successor).
const maxChainLen = 16

// markMask sizes the ledger's carrier marks (see Ledger.marks).
const markMask = 1<<12 - 1

// EdgeStats aggregates one parent-class → child-class scheduling edge.
type EdgeStats struct {
	// Count is the number of events of the child class scheduled while an
	// event of the parent class was dispatching.
	Count uint64
	// SameInstant counts scheduling with zero delay: the child fires at
	// the parent's own dispatch instant (merging it saves the scheduler
	// round-trip entirely, with no ordering consequence beyond (t,seq)
	// order within the instant).
	SameInstant uint64
	// MinDelayNs/MaxDelayNs/SumDelayNs describe the child's scheduling
	// offset from the parent's dispatch time.
	MinDelayNs int64
	MaxDelayNs int64
	SumDelayNs uint64
}

// chainRec is one in-flight sampled chain: a bounded class sequence.
type chainRec struct {
	sig [maxChainLen]Class
	n   int8
}

// Ledger collects event-causality evidence. Attach with
// Engine.AttachLedger.
type Ledger struct {
	// sampleMask gates chain capture: a chain may start when
	// seq&sampleMask == 0. 0 means every opportunity (full capture).
	sampleMask  uint64
	sampleEvery uint64

	edges  [NumClasses * NumClasses]EdgeStats
	adj    [NumClasses * NumClasses]uint64 // same-instant adjacent dispatch pairs
	roots  [NumClasses]uint64              // events scheduled outside any dispatch
	fanout [NumClasses][3]uint64           // dispatches by children scheduled: 0, 1, 2+

	chains     map[string]uint64 // finalized chain signature → count
	active     []chainRec
	freeChains []int32
	started    uint64
	finalized  uint64

	// carriers maps the scheduling sequence number of every queued event
	// that extends a sampled chain to that chain's id. marks counts those
	// events by seq&markMask, so a dispatch probes the map only when its
	// mark is set — most dispatches carry no chain.
	carriers map[uint64]int32
	marks    [markMask + 1]uint32

	// Dispatch context: the event whose handler is running, the chain it
	// carries (0 = none), how many children it has scheduled so far, and
	// whether it handed its chain on to the first of them.
	inDispatch  bool
	curClass    Class
	curChain    int32
	curKids     int32
	chainHanded bool

	// Adjacency context (previous dispatched event).
	prevT     int64
	prevClass Class
	havePrev  bool
}

// NewLedger returns a ledger that samples chain capture every sampleEvery
// scheduling opportunities (rounded up to a power of two; 1 or 0 = full
// capture). Edge, fan-out, root, and adjacency aggregation are always full
// while the ledger is attached — they are O(1) array increments.
func NewLedger(sampleEvery uint64) *Ledger {
	if sampleEvery == 0 {
		sampleEvery = 1
	}
	m := uint64(1)
	for m < sampleEvery {
		m <<= 1
	}
	return &Ledger{
		sampleMask:  m - 1,
		sampleEvery: m,
		chains:      make(map[string]uint64),
		carriers:    make(map[uint64]int32),
	}
}

// SampleEvery returns the effective (power-of-two) chain sampling period.
func (l *Ledger) SampleEvery() uint64 { return l.sampleEvery }

// AttachLedger starts recording event causality into l (nil detaches).
// Attach before Run; attaching mid-run is safe — recording simply begins
// with the next scheduled event.
func (e *Engine) AttachLedger(l *Ledger) {
	e.setObservers(e.Digest(), l, observed[*profiler](e))
}

// Ledger returns the attached ledger, or nil.
func (e *Engine) Ledger() *Ledger { return observed[*Ledger](e) }

// scheduled records one scheduling decision (an event of class `class`
// queued for time t under seq) against the current dispatch context, and
// remembers seq when the new event carries a sampled chain. Sampling keys
// on the engine's own counter e.seq, which the perturbation swap never
// relabels.
func (l *Ledger) scheduled(e *Engine, t int64, seq uint64, class Class) {
	if id := l.chainFor(e, t, class); id != 0 {
		l.carriers[seq] = id
		l.marks[seq&markMask]++
	}
}

// chainFor aggregates the scheduling edge and returns the chain id the new
// event should carry (0 = none).
func (l *Ledger) chainFor(e *Engine, t int64, class Class) int32 {
	if !l.inDispatch {
		// Scheduled from outside any handler: a root event (application
		// start-up, Every arming, driver machinery).
		l.roots[class]++
		if e.seq&l.sampleMask == 0 {
			return l.startChain(class)
		}
		return 0
	}
	d := t - e.now
	es := &l.edges[int(l.curClass)*int(NumClasses)+int(class)]
	es.Count++
	if d == 0 {
		es.SameInstant++
	}
	if es.Count == 1 || d < es.MinDelayNs {
		es.MinDelayNs = d
	}
	if d > es.MaxDelayNs {
		es.MaxDelayNs = d
	}
	es.SumDelayNs += uint64(d)
	l.curKids++
	if l.curKids == 1 {
		// The chain follows the first child only — cascades in this
		// simulator are overwhelmingly linear (fan-out ≤ 1), and a linear
		// signature is what the merge analysis consumes.
		if l.curChain != 0 {
			l.chainHanded = true
			return l.extendChain(l.curChain, class)
		}
		if e.seq&l.sampleMask == 0 {
			return l.startChainPair(l.curClass, class)
		}
	}
	return 0
}

// beginDispatch counts same-instant adjacency against the previous
// dispatch and opens the dispatch context chainFor records against.
func (l *Ledger) beginDispatch(e *Engine, seq uint64, class Class, _ any, _ int64) {
	if l.havePrev && e.now == l.prevT {
		l.adj[int(l.prevClass)*int(NumClasses)+int(class)]++
	}
	l.prevT, l.prevClass, l.havePrev = e.now, class, true
	l.inDispatch = true
	l.curClass = class
	l.curChain = 0
	if l.marks[seq&markMask] != 0 {
		if id, ok := l.carriers[seq]; ok {
			l.curChain = id
			delete(l.carriers, seq)
			l.marks[seq&markMask]--
		}
	}
	l.curKids = 0
	l.chainHanded = false
}

// endDispatch tallies the dispatch's fan-out and finalizes its chain when
// the cascade died out (no child took it over).
func (l *Ledger) endDispatch(_ *Engine, class Class) {
	l.inDispatch = false
	k := l.curKids
	if k > 2 {
		k = 2
	}
	l.fanout[class][k]++
	if l.curChain != 0 && !l.chainHanded {
		l.finalizeChain(l.curChain)
	}
}

// startChain opens a new sampled chain beginning at class.
func (l *Ledger) startChain(class Class) int32 {
	id := l.allocChain()
	c := &l.active[id-1]
	c.sig[0] = class
	c.n = 1
	return id
}

// startChainPair opens a chain beginning parent→child (sampling caught a
// cascade mid-flight).
func (l *Ledger) startChainPair(parent, child Class) int32 {
	id := l.allocChain()
	c := &l.active[id-1]
	c.sig[0], c.sig[1] = parent, child
	c.n = 2
	return id
}

func (l *Ledger) allocChain() int32 {
	l.started++
	if k := len(l.freeChains); k > 0 {
		id := l.freeChains[k-1]
		l.freeChains = l.freeChains[:k-1]
		return id
	}
	l.active = append(l.active, chainRec{})
	return int32(len(l.active))
}

// extendChain appends class to chain id, finalizing at the length cap.
// Returns the id the child event should carry (0 once closed).
func (l *Ledger) extendChain(id int32, class Class) int32 {
	c := &l.active[id-1]
	c.sig[c.n] = class
	c.n++
	if int(c.n) == maxChainLen {
		l.finalizeChain(id)
		return 0
	}
	return id
}

// finalizeChain counts the chain's signature and recycles its record.
func (l *Ledger) finalizeChain(id int32) {
	c := &l.active[id-1]
	buf := make([]byte, c.n)
	for i := int8(0); i < c.n; i++ {
		buf[i] = byte(c.sig[i])
	}
	l.chains[string(buf)]++
	l.finalized++
	c.n = 0
	l.freeChains = append(l.freeChains, id)
}

// Flush finalizes every in-flight chain. Queued events (and a running
// handler) stop carrying their chains, so recording may continue after a
// Flush; chains are simply cut at the flush point.
func (l *Ledger) Flush() {
	for id := int32(1); id <= int32(len(l.active)); id++ {
		if l.active[id-1].n > 0 {
			l.finalizeChain(id)
		}
	}
	clear(l.carriers)
	l.marks = [markMask + 1]uint32{}
	l.curChain = 0
}

// LedgerEdge is one parent→child scheduling edge with its statistics.
type LedgerEdge struct {
	Parent, Child Class
	EdgeStats
}

// Edges returns the non-empty scheduling edges ordered by (parent, child).
func (l *Ledger) Edges() []LedgerEdge {
	var out []LedgerEdge
	for p := Class(0); p < NumClasses; p++ {
		for c := Class(0); c < NumClasses; c++ {
			es := l.edges[int(p)*int(NumClasses)+int(c)]
			if es.Count == 0 {
				continue
			}
			out = append(out, LedgerEdge{Parent: p, Child: c, EdgeStats: es})
		}
	}
	return out
}

// LedgerAdj counts one same-instant adjacent dispatch pair: an event of
// class Next dispatched immediately after one of class Prev at the same
// virtual time.
type LedgerAdj struct {
	Prev, Next Class
	Count      uint64
}

// AdjacentSameInstant returns the same-instant adjacency counts ordered by
// (prev, next).
func (l *Ledger) AdjacentSameInstant() []LedgerAdj {
	var out []LedgerAdj
	for p := Class(0); p < NumClasses; p++ {
		for c := Class(0); c < NumClasses; c++ {
			n := l.adj[int(p)*int(NumClasses)+int(c)]
			if n == 0 {
				continue
			}
			out = append(out, LedgerAdj{Prev: p, Next: c, Count: n})
		}
	}
	return out
}

// LedgerFanout is one class's dispatch fan-out tally: of all dispatches of
// this class, how many scheduled zero, one, or two-plus child events.
type LedgerFanout struct {
	Class           Class
	Zero, One, Many uint64
}

// Fanouts returns per-class fan-out tallies ordered by class.
func (l *Ledger) Fanouts() []LedgerFanout {
	var out []LedgerFanout
	for c := Class(0); c < NumClasses; c++ {
		f := l.fanout[c]
		if f[0]+f[1]+f[2] == 0 {
			continue
		}
		out = append(out, LedgerFanout{Class: c, Zero: f[0], One: f[1], Many: f[2]})
	}
	return out
}

// Roots returns per-class counts of events scheduled outside any dispatch,
// ordered by class.
func (l *Ledger) Roots() []struct {
	Class Class
	Count uint64
} {
	var out []struct {
		Class Class
		Count uint64
	}
	for c := Class(0); c < NumClasses; c++ {
		if l.roots[c] == 0 {
			continue
		}
		out = append(out, struct {
			Class Class
			Count uint64
		}{c, l.roots[c]})
	}
	return out
}

// LedgerChain is one sampled chain signature with its occurrence count.
type LedgerChain struct {
	Classes []Class
	Count   uint64
}

// Chains returns the finalized chain signatures, most frequent first (ties
// broken by signature) — call Flush first to include in-flight chains.
func (l *Ledger) Chains() []LedgerChain {
	out := make([]LedgerChain, 0, len(l.chains))
	for sig, n := range l.chains {
		cs := make([]Class, len(sig))
		for i := 0; i < len(sig); i++ {
			cs[i] = Class(sig[i])
		}
		out = append(out, LedgerChain{Classes: cs, Count: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return chainLess(out[i].Classes, out[j].Classes)
	})
	return out
}

func chainLess(a, b []Class) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// ChainsStarted and ChainsFinalized report chain-capture volume.
func (l *Ledger) ChainsStarted() uint64   { return l.started }
func (l *Ledger) ChainsFinalized() uint64 { return l.finalized }
