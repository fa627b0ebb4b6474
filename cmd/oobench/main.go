// Command oobench regenerates the paper's tables and figures: it runs one
// (or all) of the experiment drivers and prints the same rows/series the
// paper reports, plus the repository's ablation studies.
//
// Usage:
//
//	oobench -exp fig8            # one experiment
//	oobench -exp all -quick      # everything at reduced scale
//	oobench -list                # enumerate experiment ids
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"openoptics"

	"openoptics/experiments"
	"openoptics/internal/compare"
	"openoptics/internal/engineobs"
	"openoptics/internal/obsv"
	"openoptics/internal/provenance"
	"openoptics/internal/runner"
	"openoptics/internal/sim"
	"openoptics/internal/telemetry"
)

type experiment struct {
	id   string
	desc string
	run  func(experiments.Params) (fmt.Stringer, error)
}

func wrap[T fmt.Stringer](fn func(experiments.Params) (T, error)) func(experiments.Params) (fmt.Stringer, error) {
	return func(p experiments.Params) (fmt.Stringer, error) {
		r, err := fn(p)
		if err != nil {
			return nil, err
		}
		return r, nil
	}
}

func runners() []experiment {
	return []experiment{
		{"fig8", "Case I: FCTs across six architectures (+UCMP)", wrap(experiments.Fig8)},
		{"fig9", "Case II: TCP throughput and reordering", wrap(experiments.Fig9)},
		{"fig10", "Case III: OCS choice — FCT vs slice duration", wrap(experiments.Fig10)},
		{"fig11", "switch-to-switch delay vs packet size", wrap(experiments.Fig11)},
		{"fig12", "EQO error vs update interval", wrap(experiments.Fig12)},
		{"fig13", "UDP RTT on RotorNet (emulation accuracy)", wrap(experiments.Fig13)},
		{"fig14", "buffer-offload RTT stability", wrap(experiments.Fig14)},
		{"table2", "Tofino2 resource usage, 108-ToR", wrap(experiments.Table2)},
		{"table3", "99.9%-ile switch buffer usage", wrap(experiments.Table3)},
		{"table4", "congestion detection + push-back", wrap(experiments.Table4)},
		{"minslice", "minimum time-slice derivation", wrap(experiments.MinSlice)},
		{"ablation-guardband", "guardband sweep vs loss", wrap(experiments.AblationGuardband)},
		{"ablation-lookup", "per-hop vs source routing", wrap(experiments.AblationLookup)},
		{"ablation-multipath", "packet vs flow hashing", wrap(experiments.AblationMultipath)},
		{"ablation-queues", "calendar depth vs wrap drops", wrap(experiments.AblationQueueCount)},
		{"ablation-eqo", "EQO vs oracle occupancy", wrap(experiments.AblationEQO)},
	}
}

func main() {
	// run's defers (trace flush, metrics write) must execute before the
	// process exits, so the exit code travels through a return value.
	os.Exit(run())
}

func run() (code int) {
	exp := flag.String("exp", "all", "experiment id (see -list) or 'all'")
	quick := flag.Bool("quick", false, "reduced scale for fast runs")
	seed := flag.Uint64("seed", 42, "experiment seed")
	nodes := flag.Int("nodes", 0, "override endpoint-node count (0 = default)")
	durMs := flag.Int("duration-ms", 0, "override measured window (0 = default)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	jobs := flag.Int("jobs", runtime.NumCPU(), "parallel experiment drivers for -exp all")
	metricsOut := flag.String("metrics-out", "", "write the last built network's metrics at exit (.json = JSON, else Prometheus text)")
	traceOut := flag.String("trace-out", "", "write sampled in-band packet traces (all networks) as JSONL")
	traceSample := flag.Float64("trace-sample", 0.01, "fraction of flows traced (with -trace-out)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile (pprof) to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (pprof) to this file at exit")
	httpAddr := flag.String("http", "", "serve live observability for the currently running network on this address")
	jsonOut := flag.String("json", "", "write a machine-readable benchmark report (per-experiment wall time + allocator deltas) to this file")
	reps := flag.Int("reps", 1, "repetitions per experiment for -json (>= 2 enables significance testing in ooctl compare)")
	digest := flag.Bool("digest", false, "attach the determinism auditor to every built network (measures digest overhead via -json wall time)")
	version := flag.Bool("version", false, "print build provenance and exit")
	flag.Parse()
	if *version {
		fmt.Println(provenance.VersionString("oobench"))
		return 0
	}
	if *reps < 1 {
		*reps = 1
	}

	// Graceful shutdown: every network an experiment builds registers its
	// engine here (via the Observe hook below); the first SIGINT/SIGTERM
	// interrupts them all, so drivers unwind quickly and the deferred
	// telemetry flushes run. A second signal kills the process.
	var (
		engMu    sync.Mutex
		engines  []*sim.Engine
		repNets  []*openoptics.Net // networks built during the current -json rep
		stopping bool
	)
	track := func(n *openoptics.Net) {
		e := n.Engine()
		engMu.Lock()
		engines = append(engines, e)
		repNets = append(repNets, n)
		if stopping {
			e.Interrupt()
		}
		engMu.Unlock()
	}
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "oobench: interrupted — stopping (signal again to kill)")
		engMu.Lock()
		stopping = true
		for _, e := range engines {
			e.Interrupt()
		}
		engMu.Unlock()
		<-sigs
		os.Exit(130)
	}()
	wasInterrupted := func() bool {
		engMu.Lock()
		defer engMu.Unlock()
		return stopping
	}

	// Profiling wraps the whole run: the CPU profile covers every
	// experiment executed, and the heap profile snapshots live allocations
	// at exit (after a GC, so it reflects retained memory, not garbage).
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oobench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "oobench:", err)
			f.Close()
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "oobench:", err)
				if code == 0 {
					code = 1
				}
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "oobench:", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}

	// Run provenance, captured once up front: the digest covers the
	// resolved benchmark parameters, so two reports compare exactly when
	// they benchmarked the same configuration.
	manifest := provenance.New(provenance.MustDigest(map[string]any{
		"tool": "oobench", "exp": *exp, "quick": *quick,
		"nodes": *nodes, "duration_ms": *durMs, "reps": *reps,
	}), *seed)

	// Experiments build their networks internally; the openoptics.Observe
	// hook attaches telemetry to each one as it is constructed.
	var lastNet *openoptics.Net
	var traceW *bufio.Writer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oobench:", err)
			return 1
		}
		traceW = bufio.NewWriter(f)
		defer func() { traceW.Flush(); f.Close() }()
		// All networks share this sink; the provenance header leads it once.
		if err := json.NewEncoder(traceW).Encode(telemetry.TraceHeader{
			Kind: "header", SchemaVersion: provenance.SchemaVersion, Manifest: &manifest,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "oobench:", err)
			return 1
		}
	}
	var srv *obsv.Server
	if *httpAddr != "" {
		srv = obsv.NewServer()
		addr, err := srv.Start(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oobench:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "oobench: live observability on http://%s\n", addr)
		if b, err := json.Marshal(manifest); err == nil {
			srv.RunInfo().Set(b)
		}
	}
	openoptics.Observe = func(n *openoptics.Net) {
		track(n)
		lastNet = n
		if *digest {
			n.AttachDigest(openoptics.DigestOptions{})
		}
		if traceW != nil {
			n.Tracer(*traceSample).SetSink(traceW)
		}
		if srv != nil {
			// Each experiment builds fresh networks; the endpoints always
			// show the most recently constructed (= currently running) one.
			n.AttachLive(srv, time.Millisecond)
		}
	}
	if *metricsOut != "" {
		defer func() {
			if lastNet == nil {
				return
			}
			lastNet.Metrics().SetManifest(&manifest)
			if err := lastNet.Metrics().WriteFile(*metricsOut); err != nil {
				fmt.Fprintln(os.Stderr, "oobench:", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}

	rs := runners()
	if *list {
		for _, r := range rs {
			fmt.Printf("%-20s %s\n", r.id, r.desc)
		}
		return 0
	}
	// An explicitly passed -seed is honored verbatim — including 0, which
	// Params treats as the default-seed sentinel unless SeedSet is up.
	seedSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seedSet = true
		}
	})
	p := experiments.Params{Quick: *quick, Seed: *seed, SeedSet: seedSet, Nodes: *nodes,
		Duration: time.Duration(*durMs) * time.Millisecond}

	ids := map[string]experiment{}
	order := make([]string, 0, len(rs))
	for _, r := range rs {
		ids[r.id] = r
		order = append(order, r.id)
	}
	var todo []string
	if *exp == "all" {
		todo = order // declared order: figures, tables, then ablations
	} else {
		if _, ok := ids[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "oobench: unknown experiment %q (try -list)\n", *exp)
			return 2
		}
		todo = []string{*exp}
	}
	// Telemetry sinks (the Observe hook, trace writer, metrics registry,
	// live server) are process-global, so parallel drivers would race on
	// them — and -json wall-clock timings would measure contention, not
	// the experiment.
	if *jobs > 1 && (*metricsOut != "" || traceW != nil || srv != nil || *jsonOut != "") {
		fmt.Fprintln(os.Stderr, "oobench: -metrics-out/-trace-out/-http/-json are process-global; clamping -jobs to 1")
		*jobs = 1
	}
	if len(todo) > 1 && *jobs > 1 {
		code := runParallel(todo, ids, p, *jobs)
		if wasInterrupted() {
			return 130
		}
		return code
	}
	report := &compare.BenchReport{SchemaVersion: provenance.SchemaVersion, Manifest: &manifest}
	failed := 0
	for _, id := range todo {
		r := ids[id]
		br := compare.BenchResult{Name: id, Reps: *reps}
		ok := true
		for rep := 0; rep < *reps; rep++ {
			engMu.Lock()
			repNets = repNets[:0]
			engMu.Unlock()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			res, err := r.run(p)
			wall := time.Since(start)
			runtime.ReadMemStats(&m1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "oobench: %s failed: %v\n", id, err)
				failed++
				ok = false
				break
			}
			br.WallNs = append(br.WallNs, float64(wall.Nanoseconds()))
			br.AllocBytes = append(br.AllocBytes, float64(m1.TotalAlloc-m0.TotalAlloc))
			br.Allocs = append(br.Allocs, float64(m1.Mallocs-m0.Mallocs))
			// Engine totals over every network this rep built — the
			// events/packet ratio the observatory pins in BENCH_core.json.
			var evs, pkts uint64
			engMu.Lock()
			for _, n := range repNets {
				evs += n.Engine().Processed
				pkts += n.PoolStats().Gets
			}
			engMu.Unlock()
			br.Events = append(br.Events, float64(evs))
			br.EventsPerPacket = append(br.EventsPerPacket, engineobs.EventsPerPacketOf(evs, pkts))
			if rep == *reps-1 {
				fmt.Printf("=== %s (%s, %.1fs) ===\n%s\n", id, r.desc, wall.Seconds(), res)
			}
			if wasInterrupted() {
				break
			}
		}
		if ok && len(br.WallNs) > 0 {
			br.Reps = len(br.WallNs)
			report.Results = append(report.Results, br)
		}
		if wasInterrupted() {
			break
		}
	}
	if *jsonOut != "" {
		if err := writeBenchReport(*jsonOut, report); err != nil {
			fmt.Fprintln(os.Stderr, "oobench:", err)
			if failed == 0 {
				failed = 1
			}
		}
	}
	if wasInterrupted() {
		fmt.Fprintln(os.Stderr, "oobench: run interrupted; partial results above")
		return 130
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// writeBenchReport renders the machine-readable benchmark report.
func writeBenchReport(path string, r *compare.BenchReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runParallel routes the experiment drivers through the sweep subsystem's
// worker pool: each driver is an isolated simulation, so they parallelize
// freely. Output is buffered per experiment and printed in declared order,
// matching the serial format; a panicking driver is recorded as failed
// instead of crashing the batch.
func runParallel(todo []string, ids map[string]experiment, p experiments.Params, jobs int) int {
	tasks := make([]runner.Task, len(todo))
	for i, id := range todo {
		r := ids[id]
		tasks[i] = runner.Task{ID: id, Run: func() (any, error) {
			start := time.Now()
			res, err := r.run(p)
			if err != nil {
				return nil, err
			}
			return fmt.Sprintf("=== %s (%s, %.1fs) ===\n%s\n",
				r.id, r.desc, time.Since(start).Seconds(), res), nil
		}}
	}
	pool := &runner.Pool{Workers: jobs}
	failed := 0
	for _, tr := range pool.Run(tasks) {
		if tr.Err != nil {
			fmt.Fprintf(os.Stderr, "oobench: %s failed: %v\n", tr.ID, tr.Err)
			failed++
			continue
		}
		fmt.Print(tr.Value.(string))
	}
	if failed > 0 {
		return 1
	}
	return 0
}
