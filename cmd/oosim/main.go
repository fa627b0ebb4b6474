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
	"openoptics/internal/sim"
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
	archName := fs.String("arch", "rotornet-vlb", "architecture: clos|c-through|jupiter|mordia|rotornet-vlb|rotornet-direct|rotornet-ucmp|rotornet-hoho|opera|semi-oblivious|shale|daware")
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
	reprogramUs := fs.Int64("reprogram-us", 0, "daware reprogram epoch in µs (0 = 2x collect interval)")
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
	engineLedger := fs.Bool("engine-ledger", false, "record the event-causality ledger (see ooctl engine chains)")
	engineLedgerSample := fs.Uint64("engine-ledger-sample", 64, "capture one full chain per this many root events (power of two)")
	engineOut := fs.String("engine-out", "", "write the engine-observatory report (JSON) at exit")
	digestOut := fs.String("digest-out", "", "attach the determinism auditor; write its digest journal (JSONL) at exit")
	digestWindow := fs.Uint64("digest-window", 0, "events per digest window (power of two; 0 = 65536)")
	digestCheckpointUs := fs.Int64("digest-checkpoint-us", 1000, "virtual µs between state checkpoints (<0 disables; checkpoints are engine events, so compared runs must match)")
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

	o := arch.Options{
		Nodes:           *nodes,
		Uplink:          *uplink,
		HostsPerNode:    1,
		SliceDurationNs: int64(*sliceUs) * 1000,
		Seed:            *seed,
	}
	if *cfgPath != "" {
		cfg, err := openoptics.LoadConfig(*cfgPath)
		if err != nil {
			return fail(err)
		}
		o.Nodes = cfg.NodeNum
		o.Uplink = cfg.Uplink
		o.HostsPerNode = cfg.HostsPerNode
		if cfg.SliceDurationNs > 0 {
			o.SliceDurationNs = cfg.SliceDurationNs
		}
		if cfg.Seed != 0 {
			o.Seed = cfg.Seed
		}
		base := cfg
		o.Tune = func(c *openoptics.Config) { *c = base }
	}
	dc := arch.DemandConfig{
		Policy:         *policy,
		Predictor:      *predictor,
		CollectEvery:   time.Duration(*collectUs) * time.Microsecond,
		ReprogramEvery: time.Duration(*reprogramUs) * time.Microsecond,
		DrainNs:        *drainUs * 1000,
	}
	in, err := buildArch(*archName, o, dc)
	if err != nil {
		return fail(err)
	}

	// Run provenance, captured once up front (never in the simulation hot
	// path): the config digest covers every resolved run parameter, so two
	// runs share a digest exactly when they simulate the same thing.
	manifest := provenance.New(provenance.MustDigest(map[string]any{
		"tool": "oosim", "arch": *archName, "workload": *workload,
		"nodes": o.Nodes, "uplink": o.Uplink, "hosts_per_node": o.HostsPerNode,
		"slice_duration_ns": o.SliceDurationNs, "duration_ms": *durMs,
		"load": *load, "config": *cfgPath,
	}), o.Seed)

	dur := time.Duration(*durMs) * time.Millisecond
	eps := in.Net.Endpoints()
	sink := traffic.NewSink(eps)
	eng := in.Net.Engine()

	// Graceful shutdown: the first SIGINT/SIGTERM interrupts the engine so
	// the run unwinds through the normal exit path (reports, flushed
	// telemetry); a second signal kills the process immediately.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
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

	// Telemetry wiring. The registry is built before traffic so per-slice
	// drop counters record from the first packet.
	if *metricsOut != "" || *httpAddr != "" {
		in.Net.Metrics().SetManifest(&manifest)
	}
	// The perturbation harness arms before the auditor attaches: the swap
	// relabels sequence numbers as they are assigned, and the digest's
	// perturb hint only names seqs assigned after the attach point — so
	// arming first guarantees a hinted pair is actually swappable.
	var perturbA, perturbB uint64
	if *perturbSwap != "" {
		if _, err := fmt.Sscanf(*perturbSwap, "%d:%d", &perturbA, &perturbB); err != nil || perturbA == 0 || perturbB == 0 {
			return fail(fmt.Errorf("bad -perturb-swap %q (want two nonzero sequence numbers A:B)", *perturbSwap))
		}
		if !eng.PerturbSwapSeq(perturbA, perturbB) {
			return fail(fmt.Errorf("-perturb-swap needs an oosim built with `-tags simdebug`"))
		}
	}
	var auditor *openoptics.Auditor
	if *digestOut != "" {
		auditor = in.Net.AttachDigest(openoptics.DigestOptions{
			WindowEvents:      *digestWindow,
			CheckpointEveryNs: *digestCheckpointUs * 1000,
		})
	}
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return fail(err)
		}
		w := bufio.NewWriter(f)
		defer func() { w.Flush(); f.Close() }()
		tracer = in.Net.Tracer(*traceSample)
		tracer.SetSink(w)
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
		if auditor != nil {
			st := auditor.Status()
			ri.Digest = &st
		}
		if b, err := json.Marshal(ri); err == nil {
			srv.RunInfo().Set(b)
		}
		in.Net.AttachLive(srv, time.Duration(*httpIntervalUs)*time.Microsecond)
	}
	if *flightOut != "" {
		f, err := os.Create(*flightOut)
		if err != nil {
			return fail(err)
		}
		w := bufio.NewWriter(f)
		defer func() { w.Flush(); f.Close() }()
		rec := obsv.NewFlightRecorder(*flightSize, obsv.TriggerConfig{
			DropSpike:     *flightDrops,
			CongestHits:   *flightCongest,
			CongestSlices: *flightCongestSlices,
			EQOErrBytes:   *flightEQO,
		}, w)
		rec.SchemaVersion = provenance.SchemaVersion
		rec.Manifest = &manifest
		rec.OnDump = func(reason string) {
			fmt.Fprintln(os.Stderr, "oosim: flight dump:", reason)
		}
		in.Net.AttachFlightRecorder(rec, true)
	}
	if *profile {
		eng.EnableProfiling(true)
	}
	if *engineLedger {
		in.Net.AttachEngineLedger(*engineLedgerSample)
	}
	if *progressMs > 0 {
		eng.ReportProgress(int64(*progressMs)*1e6, func(p sim.Progress) bool {
			fmt.Fprintf(os.Stderr, "progress: virtual %.1f ms, %d events, %.3fx real time\n",
				float64(p.VirtualNs)/1e6, p.Events, p.Ratio)
			return true
		})
	}

	var report func()
	switch *workload {
	case "memcached":
		mc := traffic.NewMemcached(eng, eps[0], eps[1:], o.Seed)
		mc.Start(int64(dur))
		report = func() {
			fmt.Printf("memcached: %s\n", sink.FCTSample(traffic.PortMemcached).Summary())
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
		pr := traffic.NewUDPProbe(eng, eps[0], eps[len(eps)-1])
		pr.Start(int64(dur))
		report = func() {
			fmt.Printf("udp rtt: %s\n", sink.RTT.Summary())
		}
	case "rpc", "hadoop", "kv":
		cdf, err := traffic.ByName(*workload)
		if err != nil {
			return fail(err)
		}
		rp, err := traffic.NewReplay(eng, eps, cdf, *load,
			int64(in.Net.Cfg.LineRateGbps*1e9), o.Seed)
		if err != nil {
			return fail(err)
		}
		rp.HotFrac = *hotFrac
		rp.HotPairs = *hotPairs
		if *loadShape != "" && *loadShape != "flat" {
			shape := &traffic.LoadShape{
				Kind:      *loadShape,
				PeriodNs:  int64(*shapePeriodMs) * 1e6,
				Amplitude: *shapeAmplitude,
			}
			if err := shape.Validate(); err != nil {
				return fail(err)
			}
			rp.Shape = shape
		}
		rp.Start(int64(dur))
		report = func() {
			fmt.Printf("%s replay: %d flows started, FCT %s\n",
				*workload, rp.Started, sink.FCTSample(traffic.PortReplay).Summary())
		}
	default:
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}

	if err := in.Run(dur + dur/4); err != nil {
		return fail(err)
	}
	if srv != nil {
		// Publish the end-of-run state; the endpoints keep serving it
		// until the process exits.
		in.Net.PublishLive(srv)
	}
	report()
	c := in.Net.Counters()
	fmt.Printf("switches: rx=%d tx=%d delivered=%d drops{noroute=%d buffer=%d congest=%d wrap=%d} misses=%d fallbacks=%d\n",
		c.RxPkts, c.TxPkts, c.Delivered, c.DropsNoRoute, c.DropsBuffer,
		c.DropsCongest, c.DropsWrap, c.SliceMisses, c.Fallbacks)
	fab := in.Net.OpticalFabric()
	fmt.Printf("optical fabric: forwarded=%d drops{guard=%d nocircuit=%d reconfig=%d}\n",
		fab.Forwarded, fab.DropsGuard, fab.DropsNoCircuit, fab.DropsReconfig)
	if in.Demand != nil {
		st := in.Demand.Stats()
		fmt.Printf("demand: epochs=%d reconfigs=%d pred_err_ratio=%.3f coverage=%.3f\n",
			st.Epochs, in.Net.Reconfigs(), st.PredErrRatio, st.Coverage)
	}
	if *profile {
		for _, cs := range eng.ProfileStats() {
			fmt.Printf("profile: %-16s %10d events %12.3f ms\n",
				cs.Class, cs.Count, float64(cs.WallNs)/1e6)
		}
	}
	if tracer != nil {
		// Flush per-flow completion times into oo_trace_fct_ns before the
		// final metrics export.
		tracer.FinalizeFlows()
	}
	if *metricsOut != "" {
		if err := writeMetrics(in.Net, *metricsOut); err != nil {
			return fail(err)
		}
	}
	if *engineOut != "" {
		if err := writeEngineReport(in.Net, &manifest, *engineOut); err != nil {
			return fail(err)
		}
	}
	if auditor != nil {
		// Flushed before the interrupted-run check so a SIGINT-drained run
		// still leaves a (marked-interrupted) journal behind. The replay spec
		// is recorded only for runs `ooctl diverge` can re-execute
		// bit-exactly: replay workloads, flag-configured (a config file can
		// tune parameters the spec does not carry), and with no live
		// telemetry or progress reporting (both schedule engine events).
		var rspec *diverge.ReplaySpec
		switch *workload {
		case "rpc", "hadoop", "kv":
			if *cfgPath == "" && *httpAddr == "" && *progressMs == 0 {
				rspec = &diverge.ReplaySpec{
					Arch:              *archName,
					Workload:          *workload,
					Nodes:             o.Nodes,
					Uplink:            o.Uplink,
					HostsPerNode:      o.HostsPerNode,
					SliceUs:           *sliceUs,
					Load:              *load,
					Seed:              o.Seed,
					DurationMs:        *durMs,
					HotFrac:           *hotFrac,
					HotPairs:          *hotPairs,
					LoadShape:         *loadShape,
					ShapePeriodMs:     *shapePeriodMs,
					ShapeAmplitude:    *shapeAmplitude,
					WindowEvents:      auditor.Digest().WindowEvents(),
					CheckpointEveryNs: auditor.CheckpointEveryNs(),
					PerturbA:          perturbA,
					PerturbB:          perturbB,
				}
				if *archName == "daware" {
					rspec.Policy = *policy
					rspec.Predictor = *predictor
					rspec.CollectUs = *collectUs
					rspec.ReprogramUs = *reprogramUs
					rspec.DrainUs = *drainUs
				}
			}
		}
		if err := diverge.WriteFile(*digestOut, auditor.BuildJournal(&manifest, rspec)); err != nil {
			return fail(err)
		}
	}
	if eng.Interrupted() {
		fmt.Fprintln(os.Stderr, "oosim: run interrupted; partial results above")
		return 130
	}
	return 0
}

// writeMetrics renders the registry to path: JSON when it ends in .json,
// Prometheus text otherwise.
func writeMetrics(n *openoptics.Net, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	defer w.Flush()
	if strings.HasSuffix(path, ".json") {
		return n.Metrics().WriteJSON(w)
	}
	return n.Metrics().WritePrometheus(w)
}

// writeEngineReport writes the engine-observatory report for `ooctl
// engine`. The report body is deterministic for identical runs; only the
// manifest carries wall-clock identity.
func writeEngineReport(n *openoptics.Net, m *provenance.Manifest, path string) error {
	r := n.EngineReport()
	r.Manifest = m
	body, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(body, '\n'), 0o644)
}

func buildArch(name string, o arch.Options, dc arch.DemandConfig) (*arch.Instance, error) {
	switch name {
	case "daware":
		return arch.DemandAware(o, dc)
	case "clos":
		return arch.Clos(o)
	case "c-through":
		return arch.CThrough(o)
	case "jupiter":
		return arch.Jupiter(o)
	case "mordia":
		return arch.Mordia(o)
	case "rotornet-vlb":
		return arch.RotorNet(o, arch.SchemeVLB)
	case "rotornet-direct":
		return arch.RotorNet(o, arch.SchemeDirect)
	case "rotornet-ucmp":
		return arch.RotorNet(o, arch.SchemeUCMP)
	case "rotornet-hoho":
		return arch.RotorNet(o, arch.SchemeHOHO)
	case "opera":
		return arch.Opera(o)
	case "semi-oblivious":
		return arch.SemiOblivious(o)
	case "shale":
		return arch.Shale(o, 2)
	}
	return nil, fmt.Errorf("unknown architecture %q", name)
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "oosim:", err)
	return 1
}
