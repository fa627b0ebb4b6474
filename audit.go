package openoptics

import (
	"fmt"

	"openoptics/internal/core"
	"openoptics/internal/diverge"
	"openoptics/internal/provenance"
	"openoptics/internal/sim"
)

// This file is the determinism auditor's Net-level half: the wiring that
// attaches the engine's event digest (internal/sim/digest.go) and, as each
// digest window closes, sweeps the runtime invariant probes — conservation
// laws that must hold in any correct run regardless of seed or topology —
// and records a hash of the network's state as the window's state hash.
// The sweep runs between two handlers, as no event, so an audited run
// dispatches exactly the events of an unaudited one. Violations fire the
// attached flight recorder, so the slices leading up to a broken invariant
// are preserved for replay. Cost discipline: a Net that never calls
// AttachDigest pays one nil check per dispatch (the engine's digest
// branch) and nothing else.

// DigestOptions configures the determinism auditor.
type DigestOptions struct {
	// WindowEvents is the digest window granularity in dispatches
	// (rounded up to a power of two; 0 = 64k). Smaller windows localize
	// divergence tighter, and sweep the probes more often, at the price
	// of a longer journal.
	WindowEvents uint64
}

// Probe is one registered runtime invariant: Check returns "" while the
// invariant holds, or a human-readable violation detail.
type Probe struct {
	Name  string
	Check func() string
}

// Auditor is a Net's attached determinism auditor: the engine event
// digest plus the invariant probes swept at every window close.
type Auditor struct {
	net *Net
	dig *sim.EventDigest

	probes []Probe

	violations     []diverge.ViolationRec
	violationCount uint64
	lastCheckT     int64

	// linkBytes holds the previous sweep's per-link cumulative byte
	// counters (AB, BA interleaved) for the byte-conservation probe.
	linkBytes []uint64
}

// maxRecordedViolations caps the violation records kept (and written to
// the journal); the count keeps incrementing past it.
const maxRecordedViolations = 64

// AttachDigest attaches the determinism auditor: every dispatch folds
// into the windowed event digest, and every window close sweeps the
// invariant probes and records the state hash. Attach before Run — the
// digest only covers dispatches after attachment. Idempotent: a second
// call returns the existing auditor unchanged.
func (n *Net) AttachDigest(opts DigestOptions) *Auditor {
	if n.audit != nil {
		return n.audit
	}
	a := &Auditor{net: n, dig: sim.NewEventDigest(opts.WindowEvents)}
	a.dig.OnWindowClose(a.sweep)
	n.eng.AttachDigest(a.dig)
	n.audit = a
	a.RegisterProbe("packet-conservation", a.checkPacketConservation)
	a.RegisterProbe("vtime-monotonic", a.checkTimeMonotonic)
	a.RegisterProbe("link-byte-conservation", a.checkLinkBytes)
	a.RegisterProbe("switch-buffer-ledger", a.checkBufferLedgers)
	return a
}

// Auditor returns the attached determinism auditor, or nil.
func (n *Net) Auditor() *Auditor { return n.audit }

// Digest exposes the underlying engine event digest.
func (a *Auditor) Digest() *sim.EventDigest { return a.dig }

// RegisterProbe adds a runtime invariant to the per-window sweep.
func (a *Auditor) RegisterProbe(name string, check func() string) {
	a.probes = append(a.probes, Probe{Name: name, Check: check})
}

// ChainHex returns the running hash-chain (including the open partial
// window) in the journal's fixed-width hex form.
func (a *Auditor) ChainHex() string { return diverge.Hex(a.dig.Chain()) }

// ViolationCount returns the cumulative invariant violations observed.
func (a *Auditor) ViolationCount() uint64 { return a.violationCount }

// Violations returns the recorded violations (capped; see ViolationCount).
func (a *Auditor) Violations() []diverge.ViolationRec { return a.violations }

// sweep evaluates the invariant probes now and returns the state hash.
// The digest runs it at every window close; BuildJournal runs it once
// more for the end-of-run state.
func (a *Auditor) sweep() uint64 {
	now := a.net.eng.Now()
	for _, p := range a.probes {
		if d := p.Check(); d != "" {
			a.violate(p.Name, d, now)
		}
	}
	a.lastCheckT = now
	return a.stateHash(now)
}

// violate records one invariant violation and fires the flight recorder
// (when one is attached) so the slices leading up to it are preserved.
func (a *Auditor) violate(probe, detail string, now int64) {
	a.violationCount++
	if len(a.violations) < maxRecordedViolations {
		a.violations = append(a.violations, diverge.ViolationRec{
			TNs: now, Events: a.net.eng.Processed, Probe: probe, Detail: detail,
		})
	}
	if a.net.flightDump != nil {
		a.net.flightDump(fmt.Sprintf("invariant %s violated at t=%dns: %s", probe, now, detail))
	}
}

// stateHash folds the network's observable state into one 64-bit value:
// engine clock and event count, every switch's counters and buffered
// bytes, fabric counters, per-link byte totals, and the packet pool's
// conservation terms. Iteration is over ordered slices only (switches by
// node id, links by fabric port) — never maps — so the hash is a pure
// function of simulation state.
func (a *Auditor) stateHash(now int64) uint64 {
	n := a.net
	h := core.Mix64(uint64(now) ^ core.Mix64(n.eng.Processed))
	mix := func(v uint64) { h = core.Mix64(h ^ v) }
	for _, sw := range n.switches {
		c := &sw.Counters
		mix(c.RxPkts ^ c.TxPkts<<1)
		mix(c.Delivered ^ c.EnqueuedBytes<<1)
		mix(c.DropsNoRoute ^ c.DropsBuffer<<8 ^ c.DropsWrap<<16 ^ c.DropsCongest<<24 ^ c.DropsTTL<<32)
		mix(c.Trims ^ c.Defers<<8 ^ c.PushBacksSent<<16 ^ c.PushBacksRx<<24)
		mix(c.Offloads ^ c.OffloadsBack<<8 ^ c.SliceMisses<<16 ^ c.Fallbacks<<24)
		mix(uint64(sw.BufferUsage(core.NoPort)))
	}
	of := n.optical
	mix(of.Forwarded ^ of.DropsGuard<<8 ^ of.DropsNoCircuit<<16 ^ of.DropsReconfig<<24)
	for _, l := range of.Links() {
		if l == nil {
			continue
		}
		mix(l.BytesAB ^ core.Mix64(l.BytesBA))
	}
	if n.elec != nil {
		mix(n.elec.DropsQueue ^ n.elec.DropsNoRoute<<16)
	}
	ps := n.pool.Stats()
	mix(ps.Gets ^ core.Mix64(ps.Puts) ^ uint64(int64(ps.Outstanding)))
	return h
}

// checkPacketConservation is the pool conservation law: every packet ever
// allocated is either back in the pool or still outstanding (in flight,
// queued, or parked) — Gets == Puts + Outstanding. A miscounted free or a
// double-free breaks the identity immediately.
func (a *Auditor) checkPacketConservation() string {
	ps := a.net.pool.Stats()
	if ps.Gets != ps.Puts+uint64(ps.Outstanding) {
		return fmt.Sprintf("pool gets=%d != puts=%d + outstanding=%d", ps.Gets, ps.Puts, ps.Outstanding)
	}
	return ""
}

// checkTimeMonotonic asserts virtual time never runs backwards between
// sweeps.
func (a *Auditor) checkTimeMonotonic() string {
	now := a.net.eng.Now()
	if now < a.lastCheckT {
		return fmt.Sprintf("virtual time moved backwards: %dns after a sweep at %dns", now, a.lastCheckT)
	}
	return ""
}

// checkLinkBytes asserts per-link byte conservation: cumulative byte
// counters are monotone non-decreasing in both directions on every
// optical-fabric link.
func (a *Auditor) checkLinkBytes() string {
	links := a.net.optical.Links()
	if cap(a.linkBytes) < 2*len(links) {
		a.linkBytes = make([]uint64, 2*len(links))
	}
	prev := a.linkBytes[:2*len(links)]
	var viol string
	for i, l := range links {
		if l == nil {
			continue
		}
		if viol == "" && (l.BytesAB < prev[2*i] || l.BytesBA < prev[2*i+1]) {
			viol = fmt.Sprintf("link %d byte counters decreased (ab %d->%d, ba %d->%d)",
				i, prev[2*i], l.BytesAB, prev[2*i+1], l.BytesBA)
		}
		prev[2*i], prev[2*i+1] = l.BytesAB, l.BytesBA
	}
	return viol
}

// checkBufferLedgers audits every switch's buffer ledger: per-port bytes
// against their queues, the switch-wide count against its ports, and the
// count within its high water and the buffer cap.
func (a *Auditor) checkBufferLedgers() string {
	for _, sw := range a.net.switches {
		if d := sw.CheckLedger(); d != "" {
			return d
		}
	}
	return ""
}

// AuditStatus is the auditor's live view, published on /snapshot and
// /runinfo and rendered by `ooctl watch`.
type AuditStatus struct {
	WindowEvents uint64 `json:"window_events"`
	Events       uint64 `json:"events"`
	Windows      int    `json:"windows"`
	Chain        string `json:"chain"`
	Violations   uint64 `json:"violations"`
}

// Status captures the auditor's current digest and violation state.
func (a *Auditor) Status() AuditStatus {
	return AuditStatus{
		WindowEvents: a.dig.WindowEvents(),
		Events:       a.dig.Events(),
		Windows:      len(a.dig.Windows()),
		Chain:        a.ChainHex(),
		Violations:   a.violationCount,
	}
}

// BuildJournal assembles the run's digest journal for writing. Call after
// the run (or after an interrupt's graceful drain — the engine's
// interrupted flag is recorded so comparison tooling knows the journal is
// truncated). It sweeps the probes once more, so the final record carries
// the end-of-run state.
func (a *Auditor) BuildJournal(m *provenance.Manifest) *diverge.Journal {
	final := a.sweep()
	j := &diverge.Journal{
		Header: diverge.Header{
			SchemaVersion: diverge.SchemaVersion,
			Manifest:      m,
			WindowEvents:  a.dig.WindowEvents(),
		},
		Violations: a.violations,
	}
	for _, w := range a.dig.Windows() {
		j.Windows = append(j.Windows, diverge.WindowRec{
			Index:     w.Index,
			EndEvents: w.EndEvents,
			EndTNs:    w.EndTNs,
			Hash:      diverge.Hex(w.Hash),
			Chain:     diverge.Hex(w.Chain),
			StateHash: diverge.Hex(w.State),
		})
	}
	j.Final = diverge.FinalRec{
		Events:      a.dig.Events(),
		LastTNs:     a.dig.LastTNs(),
		Chain:       a.ChainHex(),
		StateHash:   diverge.Hex(final),
		Windows:     len(j.Windows),
		Violations:  a.violationCount,
		Interrupted: a.net.eng.Interrupted(),
	}
	if ha, hb, ok := a.dig.PerturbHint(); ok {
		j.Final.PerturbHint = fmt.Sprintf("%d:%d", ha, hb)
	}
	return j
}
