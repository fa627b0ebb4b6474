package transport

import (
	"reflect"
	"testing"
	"time"

	"openoptics/internal/core"
)

func TestTDTCPIsolatesDivisions(t *testing.T) {
	run := func(divisions int) (int64, []float64) {
		cfg := TCPConfig{RTO: 3_000_000, TDTCPDivisions: divisions, TDTCPPeriodNs: 200_000}
		p := newPair(cfg, nil)
		// Drive division-dependent loss at the receiving side.
		drop := 0
		inner := p.stacks[1]
		p.hosts[1].Handler = func(pkt *core.Packet) {
			if pkt.Flow.Proto == core.ProtoTCP && !pkt.HasFlag(core.FlagACK) && pkt.Payload > 0 {
				div := (p.eng.Now() / 200_000) % 2
				if div == 1 {
					drop++
					if drop%3 == 0 {
						return // lost on the bad division
					}
				}
			}
			inner.onReceive(pkt)
		}
		conn := p.stacks[0].OpenTCP(flowKey(), 0, 1, 2_000_000)
		p.eng.RunUntil(int64(400 * time.Millisecond))
		return conn.Acked(), conn.DivisionWindows()
	}
	ackedClassic, winClassic := run(0)
	ackedTD, winTD := run(2)
	if len(winClassic) != 1 {
		t.Fatalf("classic TCP windows = %v", winClassic)
	}
	if len(winTD) != 2 {
		t.Fatalf("TDTCP windows = %v", winTD)
	}
	// TDTCP must move at least as much data: the good division's window
	// is not collapsed by the bad division's losses.
	if ackedTD < ackedClassic {
		t.Fatalf("TDTCP acked %d < classic %d", ackedTD, ackedClassic)
	}
	// And the per-division state must actually diverge: the clean
	// division holds a larger window than the lossy one.
	if winTD[0] <= winTD[1] {
		t.Fatalf("division windows did not diverge: %v", winTD)
	}
}

func TestTDTCPCompletesLossless(t *testing.T) {
	cfg := TCPConfig{TDTCPDivisions: 4, TDTCPPeriodNs: 100_000}
	p := newPair(cfg, nil)
	conn := p.stacks[0].OpenTCP(flowKey(), 0, 1, 1_000_000)
	p.eng.RunUntil(int64(100 * time.Millisecond))
	if !conn.Done() {
		t.Fatalf("TDTCP lossless transfer incomplete: %d", conn.Acked())
	}
	if conn.Retransmissions != 0 {
		t.Fatalf("lossless TDTCP retransmitted %d", conn.Retransmissions)
	}
}

// TestOneDivisionIsClassicTCP: TDTCP at one division is classic TCP. On
// the back-to-back rig, TDTCPDivisions 0 and 1 give the same
// per-millisecond trace of acked bytes, windows and retransmissions, and
// the same FCT, event count and stack counters — lossless, under two loss
// rates and under reordering.
func TestOneDivisionIsClassicTCP(t *testing.T) {
	type sample struct {
		acked   int64
		windows []float64
		retx    uint64
	}
	type outcome struct {
		trace    []sample
		fct      int64
		events   uint64
		counters Counters
	}
	run := func(divisions int, mutate func(*wire)) outcome {
		p := newPair(TCPConfig{TDTCPDivisions: divisions, TDTCPPeriodNs: 100_000}, mutate)
		var o outcome
		p.stacks[0].OnFlowComplete = func(fc FlowComplete) { o.fct = fc.FCT() }
		conn := p.stacks[0].OpenTCP(flowKey(), 0, 1, 1_000_000)
		for ms := int64(1); ms <= 400; ms++ {
			p.eng.RunUntil(ms * int64(time.Millisecond))
			o.trace = append(o.trace, sample{conn.Acked(), conn.DivisionWindows(), conn.Retransmissions})
		}
		o.events = p.eng.Processed
		o.counters = p.stacks[0].Counters
		return o
	}
	cases := []struct {
		name   string
		mutate func(*wire)
	}{
		{"lossless", nil},
		{"drop-every-3rd", func(w *wire) { w.dropEvery = 3 }},
		{"drop-every-7th", func(w *wire) { w.dropEvery = 7 }},
		{"reorder-every-5th", func(w *wire) { w.reorderEvery = 5 }},
	}
	var fastRetx, rtoFires uint64
	for _, tc := range cases {
		classic, one := run(0, tc.mutate), run(1, tc.mutate)
		if classic.fct == 0 {
			t.Errorf("%s: the classic flow did not complete", tc.name)
		}
		if !reflect.DeepEqual(classic, one) {
			t.Errorf("%s: one division differs from classic TCP: FCT %d vs %d, events %d vs %d, counters %+v vs %+v",
				tc.name, classic.fct, one.fct, classic.events, one.events, classic.counters, one.counters)
		}
		fastRetx += classic.counters.FastRetransmits
		rtoFires += classic.counters.RTOFires
	}
	if fastRetx == 0 || rtoFires == 0 {
		t.Fatalf("%d fast retransmits, %d RTO fires: the cases do not exercise recovery", fastRetx, rtoFires)
	}
	t.Logf("%d fast retransmits, %d RTO fires", fastRetx, rtoFires)
}
