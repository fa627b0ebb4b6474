package sim

// This file is the determinism auditor's engine half: an opt-in streaming
// digest of the dispatch stream. Every executed event folds its identity —
// (t, seq, class, node, payload fingerprint, scalar operand) — into a
// rolling 64-bit hash; every windowEvents dispatches the window hash is
// chained into a running hash-chain and recorded, so two runs can be
// compared window by window without storing the streams themselves. A
// window may also record a state hash: the OnWindowClose hook runs as the
// window closes, after its last handler and before the next, as no event
// and with no sequence number, so it observes the run without moving it. The
// window granularity is what makes divergence *bisection* cheap: once two
// journals disagree at window k, re-running [window k start, window k end)
// with per-event capture (SetCapture) names the exact first divergent
// dispatch. See internal/diverge for the journal format and comparison.
//
// The digest is the engine's one attachable observer: a detached engine
// pays one nil check per dispatch. Attached, the per-event cost is three
// mixes of a 64-bit state plus one type assertion for the payload
// fingerprint — no allocation outside window closure (one appended record
// per 64k events at the default width).

// Fingerprinted is implemented by event payloads that can contribute a
// stable identity to the dispatch digest: a node the event acts on and a
// 64-bit fingerprint over the payload's *value* fields. Implementations
// must never fold pointers, slice headers, or pool bookkeeping into the
// fingerprint — addresses vary across processes while the simulation is
// bit-identical, and a digest that hashed them would report false
// divergence on every comparison. core.Packet is the canonical
// implementation.
type Fingerprinted interface {
	EventFingerprint() (node int32, fp uint64)
}

// mix64 is the splitmix64 finalizer: a cheap full-avalanche bijection used
// to fold event identities into the rolling digest. Not cryptographic —
// the auditor detects accidental divergence, not adversarial collision.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// DigestWindow is one closed digest window: the rolling hash over its
// events and the chain value folding it onto every window before it.
type DigestWindow struct {
	Index     int    // 0-based window number
	EndEvents uint64 // dispatches executed when the window closed
	EndTNs    int64  // virtual time of the window's last dispatch
	Hash      uint64 // rolling hash over the window's events
	Chain     uint64 // running chain including this window
	State     uint64 // the OnWindowClose hook's value; 0 without a hook
}

// CapturedEvent is one dispatch recorded verbatim while a capture range
// (SetCapture) is armed — the evidence `ooctl diverge` uses to name the
// first divergent event.
type CapturedEvent struct {
	Index       uint64 // 0-based dispatch index
	TNs         int64  // dispatch virtual time
	Seq         uint64 // scheduling sequence number
	Class       Class
	Node        int32  // payload's node, 0 if the payload is not Fingerprinted
	Fingerprint uint64 // payload fingerprint, 0 likewise
	V           int64  // scalar operand (AtEvent's v)
}

// EventDigest accumulates the windowed hash-chain over an engine's
// dispatch stream. Attach with Engine.AttachDigest.
type EventDigest struct {
	mask  uint64 // windowEvents-1 (power of two)
	hash  uint64 // rolling hash of the open window
	chain uint64 // chain over all closed windows
	count uint64 // dispatches recorded
	lastT int64  // virtual time of the last dispatch

	windows []DigestWindow
	onClose func() uint64

	// Capture range [capStart, capEnd) in dispatch indexes; equal bounds
	// mean capture is off.
	capStart, capEnd uint64
	captured         []CapturedEvent

	// Perturbation-hint state: the first adjacent same-instant dispatch
	// pair whose second event was already queued when the first dispatched
	// — i.e. a pair whose (t, seq) order PerturbSwapSeq can genuinely
	// invert. Recorded so tooling can derive a valid -perturb-swap operand
	// from a clean run instead of guessing sequence numbers. Only pairs
	// whose sequence numbers were assigned after AttachDigest qualify:
	// PerturbSwapSeq relabels at scheduling time and is armed at the same
	// wiring point as the digest, so earlier (build-time) seqs are already
	// fixed and a hint naming them could never take effect.
	attachSeq   uint64 // engine seq counter when the digest was attached
	prevT       int64
	prevSeq     uint64
	prevPushSeq uint64 // engine seq counter at the previous dispatch
	havePrev    bool
	hintA       uint64
	hintB       uint64
	haveHint    bool
}

// DefaultDigestWindow is the events-per-window granularity used when
// NewEventDigest is given 0.
const DefaultDigestWindow = 1 << 16

// NewEventDigest returns a digest closing one chained window every
// windowEvents dispatches (rounded up to a power of two; 0 = 64k).
func NewEventDigest(windowEvents uint64) *EventDigest {
	if windowEvents == 0 {
		windowEvents = DefaultDigestWindow
	}
	m := uint64(1)
	for m < windowEvents {
		m <<= 1
	}
	return &EventDigest{mask: m - 1}
}

// AttachDigest starts folding dispatches into d (nil detaches). Attach
// before Run: a digest attached mid-run only covers later dispatches, and
// journals are only comparable when both runs attached at the same point.
func (e *Engine) AttachDigest(d *EventDigest) {
	if d != nil {
		d.attachSeq = e.seq
	}
	e.digest = d
}

// Digest returns the attached event digest, or nil.
func (e *Engine) Digest() *EventDigest { return e.digest }

// beginDispatch folds the dispatched event into the digest before its
// handler runs — the payload is still live then (the pool may recycle it
// inside the handler).
func (d *EventDigest) beginDispatch(e *Engine, seq uint64, class Class, arg any, v int64) {
	var node int32
	var fp uint64
	if f, ok := arg.(Fingerprinted); ok {
		node, fp = f.EventFingerprint()
	}
	d.record(e.now, seq, class, node, fp, v, e.seq)
}

// endDispatch closes a full window once its last handler has returned, so
// the close hook sees the state after exactly the window's dispatches.
func (d *EventDigest) endDispatch() {
	if d.count&d.mask == 0 {
		d.closeWindow()
	}
}

// OnWindowClose installs f to run as each window closes; its return value
// is recorded as the window's State. f runs between two handlers, outside
// any event: it must only read simulation state, never schedule.
func (d *EventDigest) OnWindowClose(f func() uint64) { d.onClose = f }

// record folds one dispatch into the rolling window hash. pushSeq is the
// engine's scheduling counter at this dispatch (used for the perturbation
// hint only).
func (d *EventDigest) record(t int64, seq uint64, class Class, node int32, fp uint64, v int64, pushSeq uint64) {
	idx := d.count
	h := d.hash
	h = mix64(h ^ uint64(t))
	h = mix64(h ^ seq ^ uint64(class)<<56 ^ uint64(uint32(node)))
	h = mix64(h ^ fp ^ uint64(v))
	d.hash = h
	if d.capStart != d.capEnd && idx >= d.capStart && idx < d.capEnd {
		d.captured = append(d.captured, CapturedEvent{
			Index: idx, TNs: t, Seq: seq, Class: class,
			Node: node, Fingerprint: fp, V: v,
		})
	}
	if !d.haveHint && d.havePrev && t == d.prevT && seq <= d.prevPushSeq &&
		d.prevSeq > d.attachSeq && seq > d.attachSeq {
		// Same instant as the previous dispatch, both events queued after
		// the digest (and thus the perturbation harness) attached, and this
		// event existed in the queue when the previous one fired: swapping
		// their sequence numbers would genuinely invert execution order.
		d.hintA, d.hintB, d.haveHint = d.prevSeq, seq, true
	}
	d.prevT, d.prevSeq, d.prevPushSeq, d.havePrev = t, seq, pushSeq, true
	d.lastT = t
	d.count++
}

// closeWindow chains the open window's hash and records it with the close
// hook's state.
func (d *EventDigest) closeWindow() {
	d.chain = mix64(d.chain ^ d.hash ^ d.count)
	w := DigestWindow{
		Index:     len(d.windows),
		EndEvents: d.count,
		EndTNs:    d.lastT,
		Hash:      d.hash,
		Chain:     d.chain,
	}
	if d.onClose != nil {
		w.State = d.onClose()
	}
	d.windows = append(d.windows, w)
	d.hash = 0
}

// WindowEvents returns the effective (power-of-two) window granularity.
func (d *EventDigest) WindowEvents() uint64 { return d.mask + 1 }

// Events returns the number of dispatches folded so far.
func (d *EventDigest) Events() uint64 { return d.count }

// LastTNs returns the virtual time of the last folded dispatch.
func (d *EventDigest) LastTNs() int64 { return d.lastT }

// Windows returns the closed windows in order.
func (d *EventDigest) Windows() []DigestWindow { return d.windows }

// Chain returns the running hash-chain including the open partial window
// (so two complete runs compare equal iff their full streams matched, even
// when the stream length is not a window multiple). Inside the handler
// that fills a window, that window is still open.
func (d *EventDigest) Chain() uint64 {
	if d.count == uint64(len(d.windows))*(d.mask+1) {
		return d.chain
	}
	return mix64(d.chain ^ d.hash ^ d.count)
}

// SetCapture arms verbatim per-event capture for dispatch indexes in
// [start, end). Capture is the bisection tool's re-run mode: cheap enough
// to keep off normally, exact when aimed at one divergent window.
func (d *EventDigest) SetCapture(start, end uint64) {
	d.capStart, d.capEnd = start, end
	d.captured = d.captured[:0]
}

// Captured returns the events recorded in the armed capture range.
func (d *EventDigest) Captured() []CapturedEvent { return d.captured }

// PerturbHint returns the first same-instant adjacent dispatch pair whose
// order a sequence-number swap would invert, if one was observed.
func (d *EventDigest) PerturbHint() (a, b uint64, ok bool) {
	return d.hintA, d.hintB, d.haveHint
}

// PerturbSwapSeq arms the simdebug perturbation harness: the events that
// would receive scheduling sequence numbers a and b receive each other's
// instead. When a and b belong to same-instant events (use a clean run's
// PerturbHint), this inverts exactly one dispatch pair's order — the
// minimal determinism fault, used to validate that divergence bisection
// names the right event. Returns false (and arms nothing) in normal
// builds: the swap check lives in the scheduling hot path, so it is
// compiled out unless built with `-tags simdebug`.
func (e *Engine) PerturbSwapSeq(a, b uint64) bool {
	if !simDebug || a == 0 || b == 0 || a == b {
		return false
	}
	e.perturbA, e.perturbB = a, b
	return true
}
