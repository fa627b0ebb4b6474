package arch

import (
	"testing"
	"time"

	"openoptics/internal/traffic"
)

// TestBuildAcceptsBothSpellings checks each sweep-spec spelling builds the
// same architecture as its canonical name, and unknown names fail.
func TestBuildAcceptsBothSpellings(t *testing.T) {
	for alias, canonical := range map[string]string{
		"cthrough": "c-through", "semioblivious": "semi-oblivious", "rotornet": "rotornet-vlb",
	} {
		a, err := Build(alias, opts(), DemandConfig{})
		if err != nil {
			t.Fatal(err)
		}
		c, err := Build(canonical, opts(), DemandConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if a.Name != c.Name {
			t.Errorf("%s built %q, %s built %q", alias, a.Name, canonical, c.Name)
		}
	}
	if len(Names()) != 12 || !Known("daware") || Known("warpdrive") {
		t.Fatalf("registry names %v", Names())
	}
	if _, err := Build("warpdrive", opts(), DemandConfig{}); err == nil {
		t.Fatal("unknown architecture built")
	}
}

// TestRunStopsAtInterrupt interrupts a demand-aware run at 3 ms of a
// 100 ms window: the control loop must stop with the engine, leaving the
// same demand statistics as a run that simply ended at 3 ms, instead of
// ticking through the remaining periods on a frozen clock.
func TestRunStopsAtInterrupt(t *testing.T) {
	const stopNs = 3_000_000
	start := func() *Instance {
		in, err := DemandAware(Options{Nodes: 8, HostsPerNode: 1, Seed: 7},
			DemandConfig{CollectEvery: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		eps := in.Net.Endpoints()
		rp, err := traffic.NewReplay(in.Net.Engine(), eps, traffic.RPC(), 0.3,
			int64(in.Net.Cfg.LineRateGbps*1e9), 7)
		if err != nil {
			t.Fatal(err)
		}
		rp.HotFrac, rp.HotPairs = 0.5, 2
		rp.Start(int64(100 * time.Millisecond))
		return in
	}
	clean := start()
	if err := clean.Run(stopNs); err != nil {
		t.Fatal(err)
	}
	cut := start()
	eng := cut.Net.Engine()
	eng.At(stopNs, eng.Interrupt)
	if err := cut.Run(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	want, got := clean.Demand.Stats(), cut.Demand.Stats()
	if got.Epochs != want.Epochs || cut.Net.Reconfigs() != clean.Net.Reconfigs() || got.PredErrRatio != want.PredErrRatio {
		t.Fatalf("interrupted run: epochs=%d reconfigs=%d pred_err=%.3f; a run ending at 3 ms: epochs=%d reconfigs=%d pred_err=%.3f",
			got.Epochs, cut.Net.Reconfigs(), got.PredErrRatio, want.Epochs, clean.Net.Reconfigs(), want.PredErrRatio)
	}
	if eng.Now() > stopNs {
		t.Fatalf("clock ran to %d ns past the interrupt at %d ns", eng.Now(), stopNs)
	}
}
