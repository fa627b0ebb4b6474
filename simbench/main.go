// Command simbench is the simulator's benchmark. For one workload it
// builds the network with the internal/arch constructors oosim and oosweep
// use, drives it through a fixed virtual window with seeded Poisson flow
// arrivals, checks the simulated outcome, and prints the metrics by name
// with their units; the last line of standard output is one JSON object.
//
// With -trace 0 it repeats untraced runs until -seconds of host time are
// spent and reports the end-to-end metrics: setup_s, run_s, ns_per_pkt and
// max_rss_mb. With -trace 1 it pairs an untraced run with a traced one
// (engine profiling on, spans around each layer call) and reports the
// per-layer metrics and a budget line.
//
// One simulation runs at a time, on one goroutine. Build and run it with
//
//	bash simbench/run.sh --workload vlb-rpc --seed 7 --seconds 35 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"openoptics/internal/compare"
	"openoptics/internal/engineobs"
	"openoptics/internal/provenance"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// stamp is the run manifest plus the host's parallelism.
type stamp struct {
	provenance.Manifest
	Nproc      int `json:"nproc"`
	GOMAXPROCS int `json:"gomaxprocs"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: vlb-rpc, clos-hadoop or daware-hotswap")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Int("seconds", 30, "host seconds to spend measuring")
	trace := fs.Int("trace", 0, "0: untraced runs, end-to-end metrics; 1: traced runs, per-layer metrics")
	out := fs.String("out", "", "directory for the result, span and bench-report files (none if empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err == nil && (*seconds < 1 || (*trace != 0 && *trace != 1)) {
		err = errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 2
	}
	ref, err := loadReference()
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	if nproc := runtime.NumCPU(); runtime.GOMAXPROCS(0) > nproc {
		runtime.GOMAXPROCS(nproc)
	}
	p := plan{w: w, seed: *seed, arrivalsNs: arrivalsNs, windowNs: windowNs}
	st := stamp{
		Manifest: provenance.New(provenance.MustDigest(map[string]any{
			"tool": "simbench", "workload": w,
			"arrivals_ns": p.arrivalsNs, "window_ns": p.windowNs, "seed": p.seed,
		}), p.seed),
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	fmt.Fprintf(stdout, "simbench %s seed %d: %s, rev %q, nproc %d, GOMAXPROCS %d\n",
		w.Name, p.seed, st.ConfigDigest, st.VCSRevision, st.Nproc, st.GOMAXPROCS)

	budget := time.Duration(*seconds) * time.Second
	var s series
	var metrics metricSet
	var sp *spanLog
	if *trace == 1 {
		sp = newSpanLog()
		s, metrics = measureTraced(p, budget, ref, sp, stdout)
	} else {
		s = measureUntraced(p, budget, ref)
		if len(s.runs) > 0 {
			metrics = endToEnd(s)
		}
	}
	if s.first != nil {
		o, _ := json.Marshal(s.first.Outcome)
		fmt.Fprintf(stdout, "outcome: %s\n", o)
	}
	for _, r := range s.tally.Reasons {
		fmt.Fprintln(stderr, "simbench: failed", r)
	}
	if len(s.runs) == 0 || metrics == nil {
		fmt.Fprintf(stderr, "simbench: %s: no run passed its checks\n", w.Name)
		return 1
	}
	res := result{
		Correct:   s.tally.Failed == 0,
		Attempted: s.tally.Attempted,
		Failed:    s.tally.Failed,
		Metrics:   metrics,
	}
	if *out != "" {
		if err := writeFiles(*out, fmt.Sprintf("%s-seed%d-trace%d", w.Name, p.seed, *trace), st, p, s, res, sp); err != nil {
			fmt.Fprintln(stderr, "simbench:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "simbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// endToEnd reports the medians of the untraced runs.
func endToEnd(s series) metricSet {
	var run, perPkt []float64
	for _, r := range s.runs {
		run = append(run, float64(r.runNs))
		perPkt = append(perPkt, ratio(float64(r.runNs), float64(r.fp.Outcome.Packets)))
	}
	m := metricSet{}
	m.put("setup_s", "s", median(s.setupNs)/1e9)
	m.put("run_s", "s", median(run)/1e9)
	m.put("ns_per_pkt", "ns", median(perPkt))
	m.put("max_rss_mb", "MB", maxRSSBytes()/mb)
	return m
}

// maxRSSBytes is the process's peak resident set size.
func maxRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // kilobytes on Linux
}

// writeFiles writes the run's result with its manifest, its spans (traced
// runs) and its untraced runs as a compare.BenchReport, which `ooctl
// compare` reads.
func writeFiles(dir, stem string, st stamp, p plan, s series, res result, sp *spanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Manifest   stamp     `json:"manifest"`
		Workload   *workload `json:"workload"`
		Seed       uint64    `json:"seed"`
		ArrivalsNs int64     `json:"arrivals_ns"`
		WindowNs   int64     `json:"window_ns"`
		Outcome    outcome   `json:"outcome"`
		Tally      tally     `json:"tally"`
		Result     result    `json:"result"`
	}{st, p.w, p.seed, p.arrivalsNs, p.windowNs, s.runs[0].fp.Outcome, s.tally, res}
	if err := writeJSON(filepath.Join(dir, stem+".result.json"), doc); err != nil {
		return err
	}
	if sp != nil {
		if err := writeJSON(filepath.Join(dir, stem+".spans.json"), sp.spans); err != nil {
			return err
		}
	}
	br := compare.BenchResult{Name: p.w.Name, Reps: len(s.runs)}
	for _, r := range s.runs {
		o := r.fp.Outcome
		br.WallNs = append(br.WallNs, float64(r.runNs))
		br.AllocBytes = append(br.AllocBytes, float64(r.allocBytes))
		br.Allocs = append(br.Allocs, float64(r.allocs))
		br.Events = append(br.Events, float64(o.Events))
		br.EventsPerPacket = append(br.EventsPerPacket, engineobs.EventsPerPacketOf(o.Events, o.Packets))
	}
	return writeJSON(filepath.Join(dir, stem+".bench.json"), compare.BenchReport{
		SchemaVersion: provenance.SchemaVersion,
		Manifest:      st,
		Results:       []compare.BenchResult{br},
	})
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
