package sim

import "time"

// Handler classes: every scheduled event belongs to a class naming the
// device machinery that will run it, so the profiler can attribute event
// counts and wall-clock time to subsystems. The taxonomy is fixed here —
// a closed uint8 enum keeps the per-event cost at one array increment.
type Class uint8

// Event handler classes.
const (
	ClassOther         Class = iota // unclassified (legacy At/After/Every)
	ClassLinkDeliver                // wire arrival at a host or the optical fabric
	ClassSwitchIngress              // switch ingress stage (links schedule it directly)
	ClassSwitchDrain                // egress serialization completion
	ClassSwitchRotate               // calendar-queue rotation (packet generator)
	ClassSwitchSignal               // circuit-notification broadcasts
	ClassHostTx                     // host NIC transmit completion
	ClassHostOffload                // offload-agent park/return
	ClassHostReport                 // traffic-collection reports
	ClassTransportRTO               // TCP retransmission-timeout checks
	ClassFabricOptical              // optical-fabric relay (unused: reserved on arrival)
	ClassFabricElec                 // electrical-fabric enqueue stage and drain
	ClassApp                        // application/traffic generators
	ClassTelemetry                  // monitors, progress reporters
	NumClasses
)

var classNames = [NumClasses]string{
	"other", "link.deliver", "switch.ingress", "switch.drain",
	"switch.rotate", "switch.signal", "host.tx", "host.offload",
	"host.report", "transport.rto", "fabric.optical", "fabric.elec",
	"app", "telemetry",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "invalid"
}

// ClassStats is one class's share of engine work.
type ClassStats struct {
	Class Class
	// Count is the number of executed events (always collected; one
	// array increment per event).
	Count uint64
	// WallNs is the accumulated real time spent in the class's handlers;
	// collected only while profiling is enabled (two clock reads per
	// event).
	WallNs int64
}

// EnableProfiling turns per-class wall-clock accounting on or off. Event
// counts are collected regardless. Turning it off discards the wall-clock
// totals; turning it on while already on keeps them.
func (e *Engine) EnableProfiling(on bool) {
	if !on || !e.profiling {
		e.wall = [NumClasses]int64{}
	}
	e.profiling = on
}

// Profiling reports whether wall-clock accounting is on.
func (e *Engine) Profiling() bool { return e.profiling }

// ProfileStats returns per-class event counts and wall-clock totals,
// ordered by class, omitting classes that never ran.
func (e *Engine) ProfileStats() []ClassStats {
	out := make([]ClassStats, 0, NumClasses)
	for c := Class(0); c < NumClasses; c++ {
		if e.classCount[c] == 0 {
			continue
		}
		cs := ClassStats{Class: c, Count: e.classCount[c]}
		if e.profiling {
			cs.WallNs = e.wall[c]
		}
		out = append(out, cs)
	}
	return out
}

// Progress is one periodic progress report: how far virtual time has
// advanced and how expensive it is in real time.
type Progress struct {
	// VirtualNs is the engine clock at the report.
	VirtualNs int64
	// Events is the total executed event count so far.
	Events uint64
	// RealElapsed is wall time since the previous report (or since
	// ReportProgress for the first).
	RealElapsed time.Duration
	// Ratio is virtual ns advanced per real ns over the interval — the
	// simulation speed (>1: faster than real time).
	Ratio float64
}

// ReportProgress invokes fn every interval of *virtual* time with the
// virtual/real speed ratio over that interval, until fn returns false.
// The classic long-run heartbeat: is the run 10× real time or 0.01×?
func (e *Engine) ReportProgress(interval int64, fn func(Progress) bool) {
	lastReal := time.Now()
	lastVirtual := e.now
	e.EveryClass(interval, interval, ClassTelemetry, func() bool {
		now := time.Now()
		real := now.Sub(lastReal)
		p := Progress{
			VirtualNs:   e.now,
			Events:      e.Processed,
			RealElapsed: real,
		}
		if real > 0 {
			p.Ratio = float64(e.now-lastVirtual) / float64(real.Nanoseconds())
		}
		lastReal = now
		lastVirtual = e.now
		return fn(p)
	})
}
