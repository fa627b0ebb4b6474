package transport

import "openoptics/internal/core"

// TDTCP (Time-division TCP, Chen et al., SIGCOMM 2022) is one of the
// transport designs the paper positions OpenOptics as a sandbox for: on a
// reconfigurable network whose path capacity changes with the optical
// schedule, one congestion window chases a moving target. TDTCP keeps an
// independent congestion state per *time division* — here, per slice of
// the optical cycle — so the window for the 100 Gbps circuit division no
// longer collapses when the 10 Gbps electrical division loses a packet.
//
// Classic TCP is TDTCP at one division: every connection runs the same
// rules (ccState) on the state of the division that sent the segments an
// ACK acknowledges, or the hole a dupack or a timeout reports. Time is
// divided by the configured division period (normally the slice
// duration); with one division every segment belongs to division 0 and
// no bookkeeping runs.

// ccState is one division's congestion state.
type ccState struct {
	cwnd     float64
	ssthresh float64
	dupacks  int
	inFR     bool
}

// grow applies a cumulative ACK: it ends fast recovery or grows the
// window by slow start or congestion avoidance, up to maxCwnd.
func (st *ccState) grow() {
	st.dupacks = 0
	if st.inFR {
		st.inFR = false
		st.cwnd = st.ssthresh
	} else if st.cwnd < st.ssthresh {
		st.cwnd++ // slow start
	} else {
		st.cwnd += 1 / st.cwnd // congestion avoidance
	}
	if st.cwnd > maxCwnd {
		st.cwnd = maxCwnd
	}
}

// halve sets the slow-start threshold to half the window, at least two
// segments: the loss response of fast retransmit and of a timeout.
func (st *ccState) halve() {
	st.ssthresh = st.cwnd / 2
	if st.ssthresh < 2 {
		st.ssthresh = 2
	}
}

// divisions is a TDTCP connection's state beyond division 0.
type divisions struct {
	// more holds the congestion states of divisions 1..n-1.
	more []ccState
	// sent holds the division that (last) sent each in-flight segment,
	// oldest at the head: a new segment pushes at the tail, a resend (of
	// the segment at the cumulative ACK) rewrites the head, and a
	// cumulative ACK pops the segments it covers.
	sent core.Deque[int32]
	// last is the division of the previous emission (-1 before the
	// first), for counting division switches.
	last int32
}

// state returns division d's congestion state.
func (c *Conn) state(d int) *ccState {
	if d == 0 {
		return &c.cc
	}
	return &c.divs.more[d-1]
}

// current returns the division active now.
func (c *Conn) current() int {
	if c.divs == nil {
		return 0
	}
	s := c.stack
	return int(s.eng.Now() / s.period % int64(s.ndiv))
}

// hole returns the division that sent the segment at the cumulative ACK,
// or the current one when nothing is in flight.
func (c *Conn) hole() int {
	if c.divs == nil || c.divs.sent.Len() == 0 {
		return c.current()
	}
	return int(c.divs.sent.Front())
}

// stamp records the current division as the sender of a new segment or,
// with resend, of the resent one.
func (c *Conn) stamp(resend bool) {
	td := c.divs
	if td == nil {
		return
	}
	d := int32(c.current())
	if td.last >= 0 && d != td.last {
		c.stack.Counters.DivisionSwitches++
	}
	td.last = d
	switch {
	case !resend:
		td.sent.PushBack(d)
	case td.sent.Len() > 0:
		td.sent.SetFront(d)
	}
}

// credit applies a cumulative ACK that advanced from prev: it grows once
// each division that sent a segment the ACK covers, or the current
// division when none is in flight.
func (c *Conn) credit(prev int64) {
	td := c.divs
	if td == nil || td.sent.Len() == 0 {
		c.state(c.current()).grow()
		return
	}
	s := c.stack
	s.acks++
	for n := (c.acked - prev + mss - 1) / mss; n > 0 && td.sent.Len() > 0; n-- {
		if d := td.sent.PopFront(); s.grown[d] != s.acks {
			s.grown[d] = s.acks
			c.state(int(d)).grow()
		}
	}
}

// DivisionWindows returns each division's window in segments (telemetry,
// tests); classic TCP has one.
func (c *Conn) DivisionWindows() []float64 {
	out := []float64{c.cc.cwnd}
	if c.divs != nil {
		for _, st := range c.divs.more {
			out = append(out, st.cwnd)
		}
	}
	return out
}
