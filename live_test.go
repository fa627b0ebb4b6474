package openoptics

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"openoptics/internal/core"
	"openoptics/internal/obsv"
	"openoptics/internal/sim"
	"openoptics/internal/switchsim"
	"openoptics/internal/traffic"
)

func TestObserveHookWiring(t *testing.T) {
	saved := Observe
	defer func() { Observe = saved }()

	var seen []*Net
	Observe = func(n *Net) { seen = append(seen, n) }
	n := rotorNet4(t, nil)
	if len(seen) != 1 || seen[0] != n {
		t.Fatalf("Observe saw %d nets, want exactly the one constructed", len(seen))
	}
}

// probeTraffic starts bidirectional UDP probes between every node pair so
// queues hold bytes throughout the run.
func probeTraffic(t *testing.T, n *Net, durNs int64) {
	t.Helper()
	eps := n.Endpoints()
	traffic.NewSink(eps)
	for i := range eps {
		for j := range eps {
			if i == j {
				continue
			}
			p := traffic.NewUDPProbe(n.Engine(), eps[i], eps[j])
			p.IntervalNs = 20_000
			p.Start(durNs)
		}
	}
}

func TestSnapshotMatchesBufferUsage(t *testing.T) {
	n := rotorNet4(t, nil)
	probeTraffic(t, n, int64(18*time.Millisecond))

	captures := 0
	for _, at := range []int64{int64(5 * time.Millisecond), 10_050_000, 15_123_456} {
		at := at
		n.Engine().At(at, func() {
			snap := n.Snapshot()
			if snap.TimeNs != at {
				t.Fatalf("snapshot TimeNs = %d, want capture instant %d", snap.TimeNs, at)
			}
			// Per-switch buffered bytes must match the buffer_usage() API
			// exactly at the capture instant.
			var total int64
			for _, sw := range snap.Switches {
				want := n.BufferUsage(sw.Node, core.NoPort)
				if sw.BufferedBytes != want {
					t.Fatalf("t=%d N%d snapshot buffered=%d, BufferUsage=%d",
						at, sw.Node, sw.BufferedBytes, want)
				}
				var portSum int64
				for _, p := range sw.Ports {
					portSum += p.BufferedBytes
					var qSum int64
					for _, q := range p.Queues {
						qSum += q.Bytes
					}
					if p.Kind == "uplink" && qSum != p.BufferedBytes {
						t.Fatalf("t=%d N%d p%d queue sum %d != port buffered %d",
							at, sw.Node, p.Port, qSum, p.BufferedBytes)
					}
				}
				if portSum != sw.BufferedBytes {
					t.Fatalf("t=%d N%d port sum %d != switch buffered %d",
						at, sw.Node, portSum, sw.BufferedBytes)
				}
				total += sw.BufferedBytes
			}
			// Totals must agree with the Counters() aggregate.
			if snap.Totals != n.Counters() {
				t.Fatalf("t=%d snapshot totals %+v != Counters() %+v", at, snap.Totals, n.Counters())
			}
			// Links mirror the bw_usage() view.
			for _, l := range snap.Links {
				if want := n.BWUsage(l.Node, l.Port); l.TxBytes != want {
					t.Fatalf("t=%d link N%d/p%d tx=%d, BWUsage=%d", at, l.Node, l.Port, l.TxBytes, want)
				}
				if l.Utilization < 0 || l.Utilization > 1 {
					t.Fatalf("utilization %f out of range", l.Utilization)
				}
			}
			if len(snap.Links) != 4 { // 4 nodes × 1 uplink
				t.Fatalf("snapshot has %d links, want 4", len(snap.Links))
			}
			captures++
		})
	}
	n.Run(20 * time.Millisecond)
	if captures != 3 {
		t.Fatalf("ran %d captures, want 3", captures)
	}
	// At least one capture should have seen buffered bytes somewhere;
	// otherwise the equality checks above were vacuous. Check final
	// counters as a proxy for real traffic.
	if n.Counters().TxPkts == 0 {
		t.Fatal("no traffic flowed; snapshot checks were vacuous")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	n := rotorNet4(t, nil)
	probeTraffic(t, n, int64(4*time.Millisecond))
	n.Run(5 * time.Millisecond)

	snap := n.Snapshot()
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back NetSnapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.TimeNs != snap.TimeNs || len(back.Switches) != len(snap.Switches) ||
		back.Totals != snap.Totals {
		t.Fatalf("round trip mismatch: %+v vs %+v", back.Totals, snap.Totals)
	}
	for i := range snap.Switches {
		if back.Switches[i].BufferedBytes != snap.Switches[i].BufferedBytes {
			t.Fatalf("switch %d buffered bytes lost in round trip", i)
		}
	}
}

func TestAttachLivePublishes(t *testing.T) {
	srv := obsv.NewServer()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	n := rotorNet4(t, nil)
	n.Metrics() // arm the registry
	probeTraffic(t, n, int64(8*time.Millisecond))
	n.AttachLive(srv, time.Millisecond)
	n.Run(10 * time.Millisecond)
	n.PublishLive(srv)

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		return string(body)
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, "oo_engine_events_total") {
		t.Fatalf("/metrics missing engine counters:\n%.400s", metrics)
	}
	if !strings.Contains(metrics, "# TYPE") {
		t.Fatal("/metrics missing exposition TYPE lines")
	}

	var snap NetSnapshot
	if err := json.Unmarshal([]byte(get("/snapshot")), &snap); err != nil {
		t.Fatalf("/snapshot not valid NetSnapshot JSON: %v", err)
	}
	if snap.TimeNs != int64(10*time.Millisecond) {
		t.Fatalf("/snapshot published at t=%d, want final state at 10ms", snap.TimeNs)
	}
	if snap.Totals.TxPkts == 0 {
		t.Fatal("/snapshot shows no traffic after a loaded run")
	}
}

// hotspotNet builds a rotorNet4 with congestion detection armed and a tiny
// per-queue threshold, then aims heavy UDP bursts at one node so the
// detection service fires continuously — the Table-4-style hotspot.
func hotspotNet(t *testing.T) *Net {
	t.Helper()
	n := rotorNet4(t, func(c *Config) {
		c.CongestionDetection = true
		c.CongestionThresholdBytes = 3_000
		c.BufferBytes = 256_000
	})
	eps := n.Endpoints()
	traffic.NewSink(eps)
	n.Engine().Every(0, 20_000, func() bool {
		if n.Engine().Now() > int64(18*time.Millisecond) {
			return false
		}
		for i := 0; i < 3; i++ {
			flow := core.FlowKey{SrcHost: eps[i].Host, DstHost: eps[3].Host,
				SrcPort: uint16(5000 + i), DstPort: 9, Proto: core.ProtoUDP}
			for k := 0; k < 4; k++ {
				eps[i].Stack.SendUDP(flow, eps[i].Node, eps[3].Node, 1500, false)
			}
		}
		return true
	})
	return n
}

func TestFlightRecorderCongestionDump(t *testing.T) {
	n := hotspotNet(t)

	var dump bytes.Buffer
	rec := obsv.NewFlightRecorder(8, obsv.TriggerConfig{
		CongestHits: 5, CongestSlices: 2,
	}, &dump)
	n.AttachFlightRecorder(rec)

	// Record ground-truth buffer usage at every sampling instant, keyed by
	// virtual time, with a second watch at the recorder's cadence. It runs
	// right after the recorder's, between the same two handlers, so the
	// two views are simultaneous by construction.
	truth := map[int64][]int64{}
	n.Engine().Watch(int64(n.Schedule().SliceDuration), func() bool {
		usage := make([]int64, len(n.Switches()))
		for i := range n.Switches() {
			usage[i] = n.BufferUsage(core.NodeID(i), core.NoPort)
		}
		truth[n.Engine().Now()] = usage
		return true
	})

	n.Run(20 * time.Millisecond)

	if rec.Dumps == 0 {
		t.Fatalf("hotspot never tripped a trigger; counters %+v", n.Counters())
	}
	if dump.Len() == 0 {
		t.Fatal("trigger fired but dump is empty")
	}

	// Replay the first dump: the header, then samples oldest-first whose
	// embedded snapshots must reproduce the ground-truth buffer totals.
	dec := json.NewDecoder(&dump)
	var hdr obsv.DumpHeader
	if err := dec.Decode(&hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Kind != "trigger" || !strings.Contains(hdr.Reason, "sustained congestion") {
		t.Fatalf("header = %+v, want a sustained-congestion trigger", hdr)
	}
	type dumpSample struct {
		TimeNs int64        `json:"time_ns"`
		Slice  int64        `json:"slice"`
		Data   *NetSnapshot `json:"data"`
	}
	replayed, prevSlice := 0, int64(-1)
	for i := 0; i < hdr.Samples; i++ {
		var s dumpSample
		if err := dec.Decode(&s); err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if prevSlice >= 0 && s.Slice != (prevSlice+1)%int64(n.Schedule().NumSlices) {
			t.Fatalf("dump slices not consecutive: %d after %d", s.Slice, prevSlice)
		}
		prevSlice = s.Slice
		if s.Data == nil {
			t.Fatalf("sample %d has no embedded snapshot", i)
		}
		want, ok := truth[s.TimeNs]
		if !ok {
			t.Fatalf("sample at t=%d has no ground-truth record", s.TimeNs)
		}
		for j, swSnap := range s.Data.Switches {
			if swSnap.BufferedBytes != want[j] {
				t.Fatalf("replay t=%d N%d buffered=%d, live BufferUsage was %d",
					s.TimeNs, j, swSnap.BufferedBytes, want[j])
			}
		}
		replayed++
	}
	if replayed == 0 {
		t.Fatal("dump contained no samples")
	}
	tot := n.Counters()
	if tot.CongestionHits() == 0 {
		t.Fatal("congestion counters empty despite trigger")
	}
}

// TestFlightRecorderSamplesCalendarOffNets: a net without a calendar
// (Clos, over the electrical fabric) still gets one sample per slice
// duration.
func TestFlightRecorderSamplesCalendarOffNets(t *testing.T) {
	n, err := New(Config{NodeNum: 4, Uplink: 1, ElectricalGbps: 100, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := n.ElectricalPaths()
	if err != nil {
		t.Fatal(err)
	}
	if err := n.DeployRouting(paths, LookupHop, MultipathNone); err != nil {
		t.Fatal(err)
	}
	rec := obsv.NewFlightRecorder(8, obsv.TriggerConfig{}, nil)
	n.AttachFlightRecorder(rec)
	n.Run(time.Millisecond) // ten 100 µs slices
	if rec.Len() != 8 {
		t.Fatalf("recorder holds %d samples after 10 slices, want a full ring of 8", rec.Len())
	}
	for i, s := range rec.Entries() {
		if want := int64(3+i) * 100_000; s.TimeNs != want || s.Slice != 0 || s.Data == nil {
			t.Fatalf("sample %d at t=%d slice %d (data %v), want t=%d slice 0 with a snapshot",
				i, s.TimeNs, s.Slice, s.Data != nil, want)
		}
	}
}

// TestObserversArePassive: every instrument a net offers — the live
// plane, Monitor, the flight recorder, the tracer, the metrics registry
// and the profiler — leaves the run exactly as it is without them: the
// same events, class counts, scheduler pressure, pool statistics and
// switch counters, and, with the digest attached, the digest-only chain.
func TestObserversArePassive(t *testing.T) {
	type outcome struct {
		processed uint64
		classes   []sim.ClassStats
		pressure  sim.SchedPressure
		pool      core.PoolStats
		counters  switchsim.Counters
		chain     string
	}
	run := func(observed, digest bool) outcome {
		n := rotorNet4(t, nil)
		probeTraffic(t, n, int64(8*time.Millisecond))
		eps := n.Endpoints()
		for i := 0; i < 3; i++ {
			flow := core.FlowKey{SrcHost: eps[i].Host, DstHost: eps[3-i].Host,
				SrcPort: uint16(100 + i), DstPort: traffic.PortReplay, Proto: core.ProtoTCP}
			eps[i].Stack.OpenTCP(flow, eps[i].Node, eps[3-i].Node, 200_000)
		}
		var aud *Auditor
		if digest {
			aud = n.AttachDigest(DigestOptions{WindowEvents: 1024})
		}
		if observed {
			n.AttachLive(obsv.NewServer(), 500*time.Microsecond)
			n.Monitor(time.Millisecond, func(Telemetry) bool { return true })
			n.AttachFlightRecorder(obsv.NewFlightRecorder(16, obsv.TriggerConfig{DropSpike: 1}, io.Discard))
			n.Tracer(1)
			n.Metrics()
			n.Engine().EnableProfiling(true)
		}
		n.Run(10 * time.Millisecond)
		o := outcome{processed: n.Engine().Processed, pressure: n.Engine().SchedPressure(),
			pool: n.PoolStats(), counters: n.Counters()}
		for _, cs := range n.Engine().ProfileStats() {
			cs.WallNs = 0
			o.classes = append(o.classes, cs)
		}
		if aud != nil {
			o.chain = aud.ChainHex()
		}
		return o
	}
	plain, observed := run(false, false), run(true, false)
	if plain.counters.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("observed run differs from the plain one:\nplain    %+v\nobserved %+v", plain, observed)
	}
	if alone, all := run(false, true), run(true, true); alone.chain != all.chain {
		t.Fatalf("digest chain %s with every observer attached, %s with the digest alone", all.chain, alone.chain)
	}
}

func TestAttachLiveZeroCostWhenAbsent(t *testing.T) {
	// Without AttachLive / AttachFlightRecorder the network builds no
	// metrics registry.
	n := rotorNet4(t, nil)
	n.Run(time.Millisecond)
	if n.reg != nil {
		t.Fatal("metrics registry materialized without opt-in")
	}
}

// Ensure the engine drains fast on interrupt even with live publishing
// armed — oosim's Ctrl-C path.
func TestInterruptWithLiveAttached(t *testing.T) {
	srv := obsv.NewServer()
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	n := rotorNet4(t, nil)
	n.Metrics()
	probeTraffic(t, n, int64(50*time.Millisecond))
	n.AttachLive(srv, time.Millisecond)
	n.Engine().At(int64(2*time.Millisecond), func() { n.Engine().Interrupt() })
	n.Run(60 * time.Millisecond)
	if !n.Engine().Interrupted() {
		t.Fatal("interrupt flag lost")
	}
	if now := n.Engine().Now(); now > int64(5*time.Millisecond) {
		t.Fatalf("engine ran to t=%d after interrupt at 2ms", now)
	}
}

func TestSnapshotCarriesEngineAndPool(t *testing.T) {
	n := rotorNet4(t, nil)
	probeTraffic(t, n, int64(time.Millisecond))
	n.Run(time.Millisecond)
	snap := n.Snapshot()
	if snap.Engine.InlinePushes+snap.Engine.SpillPushes == 0 {
		t.Fatalf("snapshot engine section empty: %+v", snap.Engine)
	}
	if snap.Pool.Gets == 0 || snap.Pool.HighWater == 0 {
		t.Fatalf("snapshot pool section empty: %+v", snap.Pool)
	}
}

func TestRegistryExportsPoolAndSchedMetrics(t *testing.T) {
	n := rotorNet4(t, nil)
	probeTraffic(t, n, int64(time.Millisecond))
	n.Run(time.Millisecond)
	var b bytes.Buffer
	if err := n.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"oo_pool_gets_total",
		"oo_pool_high_water",
		"oo_sched_inline_pushes_total",
		"oo_sched_pending_events",
		"oo_sched_resorts_total",
		"oo_sched_clamps_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics export missing %s", want)
		}
	}
}
