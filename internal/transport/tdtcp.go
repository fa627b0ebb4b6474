package transport

// TDTCP (Time-division TCP, Chen et al., SIGCOMM 2022) is one of the
// transport designs the paper positions OpenOptics as a sandbox for: on a
// reconfigurable network whose path capacity changes with the optical
// schedule, one congestion window chases a moving target. TDTCP keeps an
// independent congestion state per *time division* — here, per slice of
// the optical cycle — so the window for the 100 Gbps circuit division no
// longer collapses when the 10 Gbps electrical division loses a packet.
//
// The implementation divides time by the configured division period
// (normally the slice duration): segments are stamped with the division
// active when they are emitted, and ACK feedback (growth, dupacks, fast
// retransmit, timeouts) is applied to the state of the division that sent
// the acknowledged data.

// tdState is one division's congestion state.
type tdState struct {
	cwnd     float64
	ssthresh float64
	dupacks  int
	inFR     bool
}

// tdtcp augments a Conn with per-division state.
type tdtcp struct {
	states []tdState
	// divOf maps a segment's starting sequence to the division it was
	// (last) emitted in; entries retire as the cumulative ACK passes.
	divOf map[int64]int
	// lastDiv is the division of the previous emission (-1 before the
	// first), for counting division switches.
	lastDiv int
}

func newTDTCP(divisions int, maxCwnd float64) *tdtcp {
	td := &tdtcp{
		states:  make([]tdState, divisions),
		divOf:   make(map[int64]int),
		lastDiv: -1,
	}
	for i := range td.states {
		td.states[i] = tdState{cwnd: initCwnd, ssthresh: maxCwnd}
	}
	return td
}

// division returns the active division for virtual time t.
func (c *Conn) division(t int64) int {
	n := len(c.td.states)
	p := c.stack.cfg.TDTCPPeriodNs
	if p <= 0 {
		p = 100_000
	}
	return int((t / p) % int64(n))
}

// tdCwnd returns the window of the currently active division.
func (c *Conn) tdCwnd() float64 {
	return c.td.states[c.division(c.stack.eng.Now())].cwnd
}

// tdStamp records which division emitted the segment at seq.
func (c *Conn) tdStamp(seq int64) {
	d := c.division(c.stack.eng.Now())
	if c.td.lastDiv >= 0 && d != c.td.lastDiv {
		c.stack.Counters.DivisionSwitches++
	}
	c.td.lastDiv = d
	c.td.divOf[seq] = d
}

// tdOnAck applies cumulative-ACK feedback to the divisions whose segments
// the ACK covers, and dupack feedback to the division of the hole.
func (c *Conn) tdOnAck(prevAcked, acked int64, progress bool) {
	cfg := &c.stack.cfg
	if progress {
		// Credit every division whose segment was just acknowledged.
		credited := make(map[int]bool)
		for seq := range c.td.divOf {
			if seq >= prevAcked && seq < acked {
				credited[c.td.divOf[seq]] = true
				delete(c.td.divOf, seq)
			}
		}
		if len(credited) == 0 {
			credited[c.division(c.stack.eng.Now())] = true
		}
		for d := range credited {
			st := &c.td.states[d]
			st.dupacks = 0
			if st.inFR {
				st.inFR = false
				st.cwnd = st.ssthresh
			} else if st.cwnd < st.ssthresh {
				st.cwnd++
			} else {
				st.cwnd += 1 / st.cwnd
			}
			if st.cwnd > cfg.maxCwnd() {
				st.cwnd = cfg.maxCwnd()
			}
		}
		return
	}
	// Duplicate ACK: the hole is the segment at the cumulative ACK.
	d, ok := c.td.divOf[acked]
	if !ok {
		d = c.division(c.stack.eng.Now())
	}
	st := &c.td.states[d]
	st.dupacks++
	if !st.inFR && st.dupacks >= cfg.dupThresh() {
		st.inFR = true
		st.ssthresh = st.cwnd / 2
		if st.ssthresh < 2 {
			st.ssthresh = 2
		}
		st.cwnd = st.ssthresh
		c.Retransmissions++
		c.stack.Counters.FastRetransmits++
		c.stack.Counters.Retransmissions++
		c.emit(c.acked)
		c.tdStamp(c.acked)
	}
}

// tdOnTimeout collapses only the division that owned the lost segment.
func (c *Conn) tdOnTimeout() {
	d, ok := c.td.divOf[c.acked]
	if !ok {
		d = c.division(c.stack.eng.Now())
	}
	st := &c.td.states[d]
	st.ssthresh = st.cwnd / 2
	if st.ssthresh < 2 {
		st.ssthresh = 2
	}
	st.cwnd = 1
	st.dupacks = 0
	st.inFR = false
}

// DivisionWindows exposes the per-division windows (telemetry, tests).
func (c *Conn) DivisionWindows() []float64 {
	if c.td == nil {
		return []float64{c.cwnd}
	}
	out := make([]float64, len(c.td.states))
	for i, st := range c.td.states {
		out[i] = st.cwnd
	}
	return out
}
