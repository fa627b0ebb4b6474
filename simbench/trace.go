package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"time"

	"openoptics/internal/sim"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Start and End are nanoseconds since the log was created.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
}

// spanLog keeps spans in memory; they are written out when the benchmark
// ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) begin(name string, parent int) int {
	l.spans = append(l.spans, span{Name: name, Start: time.Since(l.t0).Nanoseconds(), Parent: parent})
	return len(l.spans) - 1
}

func (l *spanLog) end(id int) int64 {
	s := &l.spans[id]
	s.End = time.Since(l.t0).Nanoseconds()
	return s.End - s.Start
}

// totalNs sums the durations of the spans with this name that descend
// from span root.
func (l *spanLog) totalNs(name string, root int) int64 {
	var t int64
	for i, s := range l.spans {
		if s.Name == name && l.under(i, root) {
			t += s.End - s.Start
		}
	}
	return t
}

func (l *spanLog) under(i, root int) bool {
	for ; i >= 0; i = l.spans[i].Parent {
		if i == root {
			return true
		}
	}
	return false
}

// tick is one control-loop call (Instance.Reconfigure, which is
// demand.Controller.Tick) of a traced run.
type tick struct {
	ns           int64
	selfNs       int64 // ns minus the handler time of events it dispatched
	allocBytes   uint64
	reprogrammed bool
}

// tracedRun is one run with per-class engine profiling on and spans
// around the setup calls, each Net.Run chunk and each control tick.
type tracedRun struct {
	fp      fingerprint
	root    int // the run's root span
	runNs   int64
	classNs [sim.NumClasses]int64
	ticks   []tick
}

func classWallNs(eng *sim.Engine) int64 {
	var t int64
	for _, cs := range eng.ProfileStats() {
		t += cs.WallNs
	}
	return t
}

func heapAllocBytes(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// traced builds and runs the workload once with tracing on. The span tree
// is:
//
//	traced
//	├── setup
//	│   ├── arch.build          the constructor, as the untraced setup runs it
//	│   ├── redeploy            its calls re-issued one by one on the built net
//	│   │   └── topo, routing, controller.deploy
//	│   ├── traffic.start
//	│   └── net.arm
//	└── run
//	    └── net.run, demand.tick, net.run, ...
func (p plan) traced(sp *spanLog) (tr tracedRun, err error) {
	defer func() {
		if v := recover(); v != nil {
			err = fmt.Errorf("panic: %v", v)
		}
	}()
	w := p.w
	runtime.GC()
	tr.root = sp.begin("traced", -1)
	defer sp.end(tr.root)
	setup := sp.begin("setup", tr.root)
	id := sp.begin("arch.build", setup)
	in, err := w.build(p.seed)
	sp.end(id)
	if err != nil {
		return tr, err
	}
	id = sp.begin("redeploy", setup)
	err = w.redeploy(in.Net, sp, id)
	sp.end(id)
	if err != nil {
		return tr, fmt.Errorf("redeploy: %w", err)
	}
	id = sp.begin("traffic.start", setup)
	inst, err := p.startTraffic(in)
	sp.end(id)
	if err != nil {
		return tr, err
	}
	id = sp.begin("net.arm", setup)
	in.Net.Start()
	sp.end(id)
	sp.end(setup)

	eng := in.Net.Engine()
	eng.EnableProfiling(true)
	runtime.GC()
	run := sp.begin("run", tr.root)
	chunk := sp.begin("net.run", run)
	if ctl := in.Reconfigure; ctl != nil {
		alloc := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		in.Reconfigure = func() error {
			sp.end(chunk)
			reconfigs, wall, a0 := in.Net.Reconfigs(), classWallNs(eng), heapAllocBytes(alloc)
			id := sp.begin("demand.tick", run)
			err := ctl()
			ns := sp.end(id)
			a1 := heapAllocBytes(alloc)
			tr.ticks = append(tr.ticks, tick{
				ns:           ns,
				selfNs:       ns - (classWallNs(eng) - wall),
				allocBytes:   a1 - a0,
				reprogrammed: in.Net.Reconfigs() > reconfigs,
			})
			chunk = sp.begin("net.run", run)
			return err
		}
	}
	err = in.Run(time.Duration(p.windowNs))
	sp.end(chunk)
	tr.runNs = sp.end(run)
	if err != nil {
		return tr, err
	}
	for _, cs := range eng.ProfileStats() {
		tr.classNs[cs.Class] = cs.WallNs
	}
	tr.fp = inst.fingerprint()
	return tr, nil
}

// measureTraced pairs an untraced run with a traced run of the same seed
// until the budget is spent, at least once. The traced run must reproduce
// the untraced outcome and counts exactly. Per-layer metrics are the
// medians over the pairs.
func measureTraced(p plan, budget time.Duration, ref map[string]outcome, sp *spanLog, stdout io.Writer) (series, metricSet) {
	var s series
	var sets []metricSet
	start := time.Now()
	for pair := 1; ; pair++ {
		t0 := time.Now()
		u, err := p.untraced()
		okU := s.check(p, fmt.Sprintf("untraced run %d", pair), u.fp, err, ref)
		t, err := p.traced(sp)
		okT := s.check(p, fmt.Sprintf("traced run %d", pair), t.fp, err, ref)
		if okU {
			s.runs = append(s.runs, u)
		}
		if okU && okT {
			m := layerMetrics(sp, t, u)
			newBudget(t).print(stdout, p.w.Name, t, m["trace.overhead"].Value)
			sets = append(sets, m)
		}
		if time.Since(start)+time.Since(t0) > budget {
			break
		}
	}
	if len(sets) == 0 {
		return s, nil
	}
	return s, medianSet(sets)
}
