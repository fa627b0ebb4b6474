// Command oosim runs an OpenOptics network from a JSON static
// configuration (§4.1) with a chosen architecture and workload, and prints
// traffic statistics — the programmable what-if tool for users exploring
// their own deployments.
//
// Usage:
//
//	oosim -config testdata/rotornet.json -arch rotornet-vlb -workload memcached -duration-ms 100
//	oosim -nodes 16 -arch opera -workload rpc -load 0.4
//	oosim -nodes 8 -arch rotornet-vlb -http :8080    # live /metrics, /snapshot, pprof
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"openoptics"
	"openoptics/internal/arch"
	"openoptics/internal/diverge"
	"openoptics/internal/obsv"
	"openoptics/internal/provenance"
	"openoptics/internal/runner"
	"openoptics/internal/telemetry"
	"openoptics/internal/traffic"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is the real main over the command-line arguments; main wraps it in
// os.Exit so deferred flushes (trace sinks, flight dumps, the metrics
// file) run on every exit path, including an interrupted run.
func run(args []string) int {
	fs := flag.NewFlagSet("oosim", flag.ExitOnError)
	cfgPath := fs.String("config", "", "JSON static configuration file (optional)")
	archName := fs.String("arch", "rotornet-vlb", "architecture: "+strings.Join(arch.Names(), "|"))
	workload := fs.String("workload", "memcached", "workload: memcached|allreduce|iperf|udp-probe|rpc|hadoop|kv")
	nodes := fs.Int("nodes", 8, "endpoint nodes (ignored with -config)")
	uplink := fs.Int("uplink", 0, "uplinks per node (0 = architecture default)")
	durMs := fs.Int("duration-ms", 100, "virtual run duration")
	load := fs.Float64("load", 0.4, "trace replay load fraction")
	sliceUs := fs.Int("slice-us", 100, "slice duration in µs")
	seed := fs.Uint64("seed", 1, "seed")
	policy := fs.String("policy", "aware", "daware scheduling policy: oblivious|aware|reqgrant")
	predictor := fs.String("predictor", "last", "daware TM predictor: last|ewma|mean")
	collectUs := fs.Int64("collect-us", 1000, "daware TM collection interval in µs")
	reprogramUs := fs.Int64("reprogram-us", 0, "control-loop period in µs: the daware reprogram epoch (0 = 2x collect interval), "+
		"or the c-through, jupiter, mordia and semi-oblivious loop period (0 = their defaults)")
	drainUs := fs.Int64("drain-us", 0, "daware hot-swap drain window in µs (reconfiguration cost)")
	hotFrac := fs.Float64("hot-frac", 0, "fraction of replay flows aimed at one hotspot node")
	hotPairs := fs.Int("hot-pairs", 0, "route the hot fraction between this many disjoint node pairs instead")
	loadShape := fs.String("load-shape", "", "replay load shape: flat|diurnal|bursty")
	shapePeriodMs := fs.Int("shape-period-ms", 0, "load-shape period in ms (0 = 10)")
	shapeAmplitude := fs.Float64("shape-amplitude", 0, "load-shape swing in [0,1) (0 = 0.8)")
	metricsOut := fs.String("metrics-out", "", "write metrics at exit (.json = JSON, else Prometheus text)")
	traceOut := fs.String("trace-out", "", "write sampled in-band packet traces as JSONL")
	traceSample := fs.Float64("trace-sample", 0.01, "fraction of flows traced (with -trace-out)")
	profile := fs.Bool("profile", false, "collect per-handler-class wall-clock profiling")
	digestOut := fs.String("digest-out", "", "attach the determinism auditor; write its digest journal (JSONL) at exit")
	digestWindow := fs.Uint64("digest-window", 0, "events per digest window (power of two; 0 = 65536)")
	perturbSwap := fs.String("perturb-swap", "", "swap scheduling sequence numbers A:B (simdebug builds; see a clean journal's perturb_hint)")
	progressMs := fs.Int("progress-ms", 0, "print a virtual/real speed report every N virtual ms")
	httpAddr := fs.String("http", "", "serve live observability (metrics, snapshot, pprof) on this address")
	httpIntervalUs := fs.Int("http-interval-us", 1000, "virtual µs between live publications (with -http)")
	flightOut := fs.String("flight-out", "", "enable the flight recorder; write anomaly dumps to this JSONL file")
	flightSize := fs.Int("flight-size", 64, "flight-recorder ring size in slices")
	flightDrops := fs.Uint64("flight-drops", 500, "dump on this many drops in one slice (0 disables)")
	flightCongest := fs.Uint64("flight-congest", 200, "dump on this many congestion hits per slice sustained (0 disables)")
	flightCongestSlices := fs.Int("flight-congest-slices", 8, "slices of sustained congestion before dumping")
	flightEQO := fs.Int64("flight-eqo", 0, "dump when EQO error reaches this many bytes (0 disables)")
	version := fs.Bool("version", false, "print build provenance and exit")
	fs.Parse(args)
	if *version {
		fmt.Println(provenance.VersionString("oosim"))
		return 0
	}

	sc := runner.Scenario{
		Arch:            *archName,
		Nodes:           *nodes,
		Uplink:          *uplink,
		Trace:           *workload,
		Load:            *load,
		Seed:            *seed,
		DurationMs:      *durMs,
		SliceDurationNs: int64(*sliceUs) * 1000,
		EventDigest:     *digestOut != "",
		HotFrac:         *hotFrac,
		HotPairs:        *hotPairs,
		LoadShape:       *loadShape,
		ShapePeriodMs:   *shapePeriodMs,
		ShapeAmplitude:  *shapeAmplitude,
	}
	sc.ReconfigPeriodUs = *reprogramUs
	if *archName == "daware" {
		sc.Policy = *policy
		sc.Predictor = *predictor
		sc.CollectIntervalUs = *collectUs
		sc.ReconfigDrainUs = *drainUs
	}
	w := runner.Wiring{Digest: openoptics.DigestOptions{WindowEvents: *digestWindow}}
	if *cfgPath != "" {
		cfg, err := openoptics.LoadConfig(*cfgPath)
		if err != nil {
			return fail(err)
		}
		sc.Nodes = cfg.NodeNum
		sc.Uplink = cfg.Uplink
		if cfg.SliceDurationNs > 0 {
			sc.SliceDurationNs = cfg.SliceDurationNs
		}
		if cfg.Seed != 0 {
			sc.Seed = cfg.Seed
		}
		w.Tune = func(c *openoptics.Config) { *c = cfg }
	}
	if *perturbSwap != "" {
		if _, err := fmt.Sscanf(*perturbSwap, "%d:%d", &w.PerturbA, &w.PerturbB); err != nil || w.PerturbA == 0 || w.PerturbB == 0 {
			return fail(fmt.Errorf("bad -perturb-swap %q (want two nonzero sequence numbers A:B)", *perturbSwap))
		}
	}

	// Run provenance, captured once up front (never in the simulation hot
	// path): the config digest covers the whole resolved scenario (the seed
	// aside, which the manifest records on its own) and the config file, so
	// two runs share a digest exactly when they simulate the same thing.
	manifest := provenance.New(provenance.MustDigest(map[string]any{
		"tool": "oosim", "scenario": sc.ConfigDigest(), "config": *cfgPath,
	}), sc.Seed)
	dur := sc.Duration()

	// Graceful shutdown: the first SIGINT/SIGTERM interrupts the engine so
	// the run unwinds through the normal exit path (reports, flushed
	// telemetry); a second signal kills the process immediately. A signal
	// that arrives while the network is still being built waits in the
	// channel and stops the run before it starts.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)

	st, err := sc.Start(w)
	if err != nil {
		return fail(err)
	}
	eng := st.Net.Engine()
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sigs:
		case <-done:
			return
		}
		fmt.Fprintln(os.Stderr, "oosim: interrupted — stopping (signal again to kill)")
		eng.Interrupt()
		<-sigs
		os.Exit(130)
	}()

	// Telemetry wiring, after the auditor and before the arrivals. The
	// registry carries the run manifest, which -http publishes from the
	// first frame.
	if *metricsOut != "" || *httpAddr != "" {
		st.Net.Metrics().SetManifest(&manifest)
	}
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fail(err)
		}
		bw := bufio.NewWriter(f)
		defer func() { bw.Flush(); f.Close() }()
		tracer = st.Net.Tracer(*traceSample)
		tracer.SetSink(bw)
		tracer.WriteHeader(&manifest)
	}
	var srv *obsv.Server
	if *httpAddr != "" {
		srv = obsv.NewServer()
		addr, err := srv.Start(*httpAddr)
		if err != nil {
			return fail(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "oosim: live observability on http://%s\n", addr)
		ri := struct {
			provenance.Manifest
			Digest *openoptics.AuditStatus `json:"digest,omitempty"`
		}{Manifest: manifest}
		if st.Auditor != nil {
			as := st.Auditor.Status()
			ri.Digest = &as
		}
		if b, err := json.Marshal(ri); err == nil {
			srv.RunInfo().Set(b)
		}
		st.Net.AttachLive(srv, time.Duration(*httpIntervalUs)*time.Microsecond)
	}
	if *flightOut != "" {
		f, err := os.Create(*flightOut)
		if err != nil {
			return fail(err)
		}
		bw := bufio.NewWriter(f)
		defer func() { bw.Flush(); f.Close() }()
		rec := obsv.NewFlightRecorder(*flightSize, obsv.TriggerConfig{
			DropSpike:     *flightDrops,
			CongestHits:   *flightCongest,
			CongestSlices: *flightCongestSlices,
			EQOErrBytes:   *flightEQO,
		}, bw)
		rec.SchemaVersion = provenance.SchemaVersion
		rec.Manifest = &manifest
		rec.OnDump = func(reason string) {
			fmt.Fprintln(os.Stderr, "oosim: flight dump:", reason)
		}
		st.Net.AttachFlightRecorder(rec)
	}
	if *profile {
		eng.EnableProfiling(true)
	}
	if *progressMs > 0 {
		// One report per interval of virtual time: the events figure
		// counts every event up to the instant, and the ratio is virtual
		// over real time since the previous report.
		lastReal, lastVirtual := time.Now(), eng.Now()
		eng.Watch(int64(*progressMs)*1e6, func() bool {
			now := time.Now()
			real, ratio := now.Sub(lastReal), 0.0
			if real > 0 {
				ratio = float64(eng.Now()-lastVirtual) / float64(real.Nanoseconds())
			}
			fmt.Fprintf(os.Stderr, "progress: virtual %.1f ms, %d events, %.3fx real time\n",
				float64(eng.Now())/1e6, eng.Processed, ratio)
			lastReal, lastVirtual = now, eng.Now()
			return true
		})
	}

	eps := st.Net.Endpoints()
	var report func()
	switch *workload {
	case "memcached":
		traffic.NewMemcached(eng, eps[0], eps[1:], sc.Seed).Start(int64(dur))
		report = func() {
			fmt.Printf("memcached: %s\n", st.Sink.FCTSample(traffic.PortMemcached).Summary())
		}
	case "allreduce":
		ar := traffic.NewAllReduce(eng, eps, 4_000_000)
		done := 0
		ar.OnDone = func(ns int64) {
			done++
			fmt.Printf("allreduce #%d: %.3f ms\n", done, float64(ns)/1e6)
			if eng.Now() < int64(dur) {
				ar.Restart(4_000_000)
			}
		}
		ar.Start()
		report = func() { fmt.Printf("allreduce: %d collectives completed\n", done) }
	case "iperf":
		ip := traffic.NewIperf(eng, [][2]traffic.Endpoint{{eps[0], eps[len(eps)/2]}})
		report = func() {
			fmt.Printf("iperf: %.2f Gbps goodput, %d retransmissions\n",
				ip.GoodputBps()/1e9, ip.Retransmissions())
		}
	case "udp-probe":
		traffic.NewUDPProbe(eng, eps[0], eps[len(eps)-1]).Start(int64(dur))
		report = func() { fmt.Printf("udp rtt: %s\n", st.Sink.RTT.Summary()) }
	case "rpc", "hadoop", "kv":
		if err := st.StartTrace(sc.Seed); err != nil {
			return fail(err)
		}
		report = func() {
			fmt.Printf("%s replay: %d flows started, FCT %s\n",
				*workload, st.Replay.Started, st.Sink.FCTSample(traffic.PortReplay).Summary())
		}
	default:
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}

	if err := st.Run(dur + dur/4); err != nil {
		return fail(err)
	}
	if srv != nil {
		// Publish the end-of-run state; the endpoints keep serving it
		// until the process exits.
		st.Net.PublishLive(srv)
	}
	report()
	c := st.Net.Counters()
	fmt.Printf("switches: rx=%d tx=%d delivered=%d drops{noroute=%d buffer=%d congest=%d wrap=%d} misses=%d fallbacks=%d\n",
		c.RxPkts, c.TxPkts, c.Delivered, c.DropsNoRoute, c.DropsBuffer,
		c.DropsCongest, c.DropsWrap, c.SliceMisses, c.Fallbacks)
	fab := st.Net.OpticalFabric()
	fmt.Printf("optical fabric: forwarded=%d drops{guard=%d nocircuit=%d reconfig=%d}\n",
		fab.Forwarded, fab.DropsGuard, fab.DropsNoCircuit, fab.DropsReconfig)
	if st.Demand != nil {
		ds := st.Demand.Stats()
		fmt.Printf("demand: epochs=%d reconfigs=%d pred_err_ratio=%.3f coverage=%.3f\n",
			ds.Epochs, st.Net.Reconfigs(), ds.PredErrRatio, ds.Coverage)
	}
	if *profile {
		for _, cs := range eng.ProfileStats() {
			fmt.Printf("profile: %-16s %10d events %12.3f ms\n",
				cs.Class, cs.Count, float64(cs.WallNs)/1e6)
		}
	}
	if tracer != nil {
		// Observe per-flow completion times (oo_trace_fct_ns) before the
		// final metrics export.
		tracer.FinalizeFlows()
	}
	if *metricsOut != "" {
		if err := st.Net.Metrics().WriteFile(*metricsOut); err != nil {
			return fail(err)
		}
	}
	if st.Auditor != nil {
		// Flushed before the interrupted-run check so a SIGINT-drained run
		// still leaves a (marked-interrupted) journal behind. The scenario
		// is recorded only for runs `ooctl diverge` can re-execute
		// bit-exactly: trace replays, flag-configured (a config file can
		// tune parameters the scenario does not carry).
		j, err := st.Journal(&manifest)
		if err != nil {
			return fail(err)
		}
		if st.Replay == nil || *cfgPath != "" {
			j.Header.Scenario = nil
		}
		if err := diverge.WriteFile(*digestOut, j); err != nil {
			return fail(err)
		}
	}
	if eng.Interrupted() {
		fmt.Fprintln(os.Stderr, "oosim: run interrupted; partial results above")
		return 130
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "oosim:", err)
	return 1
}
