// Command oosweep orchestrates scenario sweeps: it expands a declarative
// JSON sweep spec (architecture × routing × nodes × trace × load ×
// seed-replication grid) into independent simulation jobs and runs them on
// a bounded worker pool with panic isolation, bounded retry, and resumable
// JSONL checkpointing. Aggregated CSV/JSON output is byte-identical for
// any -jobs value.
//
// Usage:
//
//	oosweep run -spec testdata/sweep_smoke.json -out /tmp/sweep        # fresh sweep
//	oosweep run -spec ... -out ... -resume                             # skip completed jobs
//	oosweep resume -spec ... -out ...                                  # same as run -resume
//	oosweep list -spec testdata/sweep_smoke.json                       # expanded job IDs
//	oosweep aggregate -out /tmp/sweep                                  # rebuild summaries
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"

	"openoptics/internal/obsv"
	"openoptics/internal/provenance"
	"openoptics/internal/runner"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func usage() int {
	fmt.Fprintln(os.Stderr, "usage: oosweep <run|resume|list|aggregate> [flags]")
	fmt.Fprintln(os.Stderr, "  run       -spec FILE -out DIR [-jobs N] [-resume] [-metrics] [-quiet] [-http ADDR] [-cpuprofile FILE] [-memprofile FILE]")
	fmt.Fprintln(os.Stderr, "  resume    -spec FILE -out DIR [-jobs N] ...   (run with -resume implied)")
	fmt.Fprintln(os.Stderr, "  list      -spec FILE")
	fmt.Fprintln(os.Stderr, "  aggregate -out DIR")
	fmt.Fprintln(os.Stderr, "  -version  print build provenance and exit")
	return 2
}

func run(args []string) int {
	if len(args) == 0 {
		return usage()
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "run":
		return runSweep(rest, false)
	case "resume":
		return runSweep(rest, true)
	case "list":
		return runList(rest)
	case "aggregate":
		return runAggregate(rest)
	case "-version", "--version", "version":
		fmt.Println(provenance.VersionString("oosweep"))
		return 0
	case "-h", "-help", "--help", "help":
		usage()
		return 0
	}
	fmt.Fprintf(os.Stderr, "oosweep: unknown command %q\n", cmd)
	return usage()
}

func runSweep(args []string, resume bool) int {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	specPath := fs.String("spec", "", "sweep spec JSON file")
	out := fs.String("out", "", "output directory (ledger + summaries)")
	jobs := fs.Int("jobs", runtime.NumCPU(), "worker pool size")
	resumeFlag := fs.Bool("resume", resume, "skip jobs already completed in the ledger")
	metrics := fs.Bool("metrics", false, "write each job's telemetry registry under <out>/metrics/")
	quiet := fs.Bool("quiet", false, "suppress the per-job progress line")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile (pprof) of the whole sweep to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile (pprof) to this file at exit")
	httpAddr := fs.String("http", "", "serve live sweep progress (/progress, pprof) on this address")
	fs.Parse(args)
	if *specPath == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "oosweep: run needs -spec and -out")
		return 2
	}
	// The profiles cover the sweep end to end, all workers included —
	// same semantics as oobench's -cpuprofile/-memprofile.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oosweep:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "oosweep:", err)
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
				fmt.Fprintln(os.Stderr, "oosweep:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "oosweep:", err)
			}
		}()
	}
	spec, err := runner.LoadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oosweep:", err)
		return 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "oosweep:", err)
		return 1
	}
	opt := runner.SweepOptions{
		Jobs:       *jobs,
		LedgerPath: filepath.Join(*out, "ledger.jsonl"),
		Resume:     *resumeFlag,
	}
	if !*quiet {
		opt.Progress = os.Stderr
	}
	if *metrics {
		opt.MetricsDir = filepath.Join(*out, "metrics")
	}

	// Graceful shutdown: the first SIGINT/SIGTERM closes the pool's stop
	// channel — in-flight jobs finish and checkpoint, the rest are counted
	// as aborted and `oosweep resume` picks them up. A second signal kills
	// the process (the ledger is kill-safe: one unbuffered write per job).
	stop := make(chan struct{})
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "oosweep: interrupted — draining in-flight jobs (signal again to kill)")
		close(stop)
		<-sigs
		os.Exit(130)
	}()
	opt.Stop = stop

	// One manifest per sweep, captured here so the ledger header, the
	// summaries, and the live /runinfo endpoint all carry the same one.
	manifest := provenance.New(spec.ConfigDigest(), spec.MasterSeed())
	opt.Manifest = &manifest

	if *httpAddr != "" {
		srv := obsv.NewServer()
		addr, err := srv.Start(*httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "oosweep:", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "oosweep: live progress on http://%s/progress\n", addr)
		if b, err := json.Marshal(manifest); err == nil {
			srv.RunInfo().Set(b)
		}
		progressEP := srv.Progress()
		opt.OnProgress = func(p runner.SweepProgress) {
			if b, err := json.Marshal(p); err == nil {
				progressEP.Set(b)
			}
		}
	}

	sr, err := runner.Sweep(spec, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oosweep:", err)
		return 1
	}
	if code := aggregate(spec.Name, opt.LedgerPath, *out); code != 0 {
		return code
	}
	fmt.Printf("sweep %s: %d jobs, %d ok, %d failed, %d aborted, %d skipped (resume)\n",
		spec.Name, sr.Total, sr.OK, sr.Failed, sr.Aborted, sr.Skipped)
	if sr.Aborted > 0 {
		fmt.Fprintf(os.Stderr, "oosweep: %d jobs aborted; `oosweep resume -spec %s -out %s` continues\n",
			sr.Aborted, *specPath, *out)
		return 130
	}
	if sr.Failed > 0 {
		return 1
	}
	return 0
}

func runList(args []string) int {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	specPath := fs.String("spec", "", "sweep spec JSON file")
	fs.Parse(args)
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "oosweep: list needs -spec")
		return 2
	}
	spec, err := runner.LoadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oosweep:", err)
		return 1
	}
	for _, j := range spec.Expand() {
		fmt.Printf("%-48s seed=%d\n", j.ID, j.Scenario.Seed)
	}
	return 0
}

func runAggregate(args []string) int {
	fs := flag.NewFlagSet("aggregate", flag.ExitOnError)
	out := fs.String("out", "", "sweep output directory")
	name := fs.String("name", "", "sweep name for the summary (default: directory base)")
	fs.Parse(args)
	if *out == "" {
		fmt.Fprintln(os.Stderr, "oosweep: aggregate needs -out")
		return 2
	}
	if *name == "" {
		*name = filepath.Base(*out)
	}
	return aggregate(*name, filepath.Join(*out, "ledger.jsonl"), *out)
}

// aggregate rebuilds summary.csv and summary.json from the ledger, carrying
// the ledger's provenance header into the JSON summary.
func aggregate(name, ledgerPath, out string) int {
	recs, hdr, err := runner.ReadLedgerFull(ledgerPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "oosweep:", err)
		return 1
	}
	agg := runner.NewAggregate(name, recs)
	agg.Stamp(hdr)
	if err := writeTo(filepath.Join(out, "summary.csv"), agg.WriteCSV); err != nil {
		fmt.Fprintln(os.Stderr, "oosweep:", err)
		return 1
	}
	if err := writeTo(filepath.Join(out, "summary.json"), agg.WriteJSON); err != nil {
		fmt.Fprintln(os.Stderr, "oosweep:", err)
		return 1
	}
	return 0
}

func writeTo(path string, fn func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
