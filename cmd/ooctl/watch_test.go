package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"openoptics"
	"openoptics/internal/core"
	"openoptics/internal/fabric"
	"openoptics/internal/runner"
	"openoptics/internal/switchsim"
)

func cannedSnapshot() *openoptics.NetSnapshot {
	mkSwitch := func(node int, buf int64) switchsim.Snapshot {
		return switchsim.Snapshot{
			Node:          core.NodeID(node),
			ActiveQueue:   1,
			BufferedBytes: buf,
			Ports: []switchsim.PortSnapshot{{
				Port: 0, Kind: "uplink", BufferedBytes: buf,
				Queues: []switchsim.QueueSnapshot{
					{Bytes: buf / 2, Packets: 1, EstBytes: buf/2 + 100},
					{Bytes: buf - buf/2, Packets: 1, EstBytes: buf - buf/2},
				},
			}},
		}
	}
	s := &openoptics.NetSnapshot{
		TimeNs: 5_000_000, Slice: 2, NumSlices: 3, Events: 12345,
		Switches: []switchsim.Snapshot{mkSwitch(0, 3000), mkSwitch(1, 0)},
		Optical: fabric.OpticalSnapshot{
			Slice: 2, NumSlices: 3,
			Circuits: []fabric.CircuitSnapshot{{A: 0, B: 1}},
		},
	}
	s.Totals.RxPkts = 10
	s.Totals.TxPkts = 9
	s.Totals.Delivered = 8
	s.Totals.DropsCongest = 2
	s.Engine.PendingEvents = 17
	s.Engine.MaxWheelEvents = 42
	s.Engine.Clamps = 4
	s.Engine.InlinePushes = 900
	s.Engine.SpillPushes = 100
	s.Pool.Gets = 500
	s.Pool.Outstanding = 3
	s.Pool.HighWater = 7
	s.Pool.Slabs = 1
	return s
}

func TestWatchRendersSnapshot(t *testing.T) {
	snap := cannedSnapshot()
	body, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/snapshot" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	defer srv.Close()

	frame, err := fetchFrame(&http.Client{Timeout: time.Second}, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"slice 2/3",    // header slice position
		"events 12345", // engine progress
		"circuits 1",   // OCS state
		"N0",           // per-switch rows
		"3000",         // buffered bytes
		"1500*",        // active queue marked
		"drops",        // column header
		"totals: rx 10  tx 9  delivered 8  drops 2",
		"engine: pending 17 (max wheel 42)", // scheduler-pressure line
		"spill 10.00%",                      // spill share of pushes
		"clamps 4",                          // past-time schedules
		"pool 3 live / 7 hw / 1 slabs",      // packet-pool occupancy
	} {
		if !strings.Contains(frame, want) {
			t.Errorf("frame missing %q:\n%s", want, frame)
		}
	}
}

func TestWatchRatesBetweenFrames(t *testing.T) {
	snap := cannedSnapshot()
	r := &watchRates{}
	// First observation establishes the baseline: no rate yet.
	if got := r.observe(snap); got != "" {
		t.Fatalf("first frame should carry no rate, got %q", got)
	}
	// Simulate one second elapsing and 2M events / 10k packets of progress.
	r.lastWall = time.Now().Add(-time.Second)
	next := *snap
	next.Events += 2_000_000
	next.Pool.Gets += 10_000
	got := r.observe(&next)
	if !strings.Contains(got, "ev/s") || !strings.Contains(got, "pkt/s") {
		t.Fatalf("rate suffix missing units: %q", got)
	}
	if !strings.Contains(got, "M ev/s") {
		t.Errorf("expected mega events rate, got %q", got)
	}
	if !strings.Contains(got, "k pkt/s") {
		t.Errorf("expected kilo packet rate, got %q", got)
	}
	// A restarted server (events moving backwards) must not render a
	// negative rate.
	if got := r.observe(snap); got != "" {
		t.Errorf("backwards counters should suppress the rate, got %q", got)
	}
}

func TestWatchFallsBackToProgress(t *testing.T) {
	// An oosweep server publishes /progress but has no snapshot yet: watch
	// must render the sweep tally instead of failing.
	prog := runner.SweepProgress{Total: 10, Skipped: 2, Pending: 8, Done: 5,
		OK: 4, Failed: 1, ElapsedMs: 2000, EtaMs: 1200}
	body, _ := json.Marshal(prog)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/snapshot":
			http.Error(w, "nothing published yet", http.StatusServiceUnavailable)
		case "/progress":
			w.Header().Set("Content-Type", "application/json")
			w.Write(body)
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	frame, err := fetchFrame(&http.Client{Timeout: time.Second}, srv.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"5/8 done", "4 ok", "1 failed)",
		"2 skipped of 10", "elapsed 2.0s", "eta 1.2s"} {
		if !strings.Contains(frame, want) {
			t.Errorf("progress frame missing %q:\n%s", want, frame)
		}
	}
}

func TestWatchErrorsWhenNothingServed(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	if _, err := fetchFrame(&http.Client{Timeout: time.Second}, srv.URL, nil); err == nil {
		t.Fatal("expected an error when neither endpoint is published")
	}
}
