package main

// `ooctl diverge` compares two determinism digest journals (oosim
// -digest-out) and reports where — if anywhere — the two runs' dispatch
// streams first parted ways. When the journals carry their scenarios, a
// window-level mismatch is narrowed to the exact first divergent event by
// re-running both scenarios with per-event capture armed over the divergent
// window. Exit codes mirror `ooctl regress`: 0 identical, 1 error,
// 2 usage, 3 divergent.

import (
	"flag"
	"fmt"
	"os"

	"openoptics/internal/diverge"
	"openoptics/internal/diverge/replay"
)

func runDiverge(args []string) int {
	fs := flag.NewFlagSet("diverge", flag.ExitOnError)
	jsonOut := fs.String("json", "", "also write the report as indented JSON to this file")
	noRerun := fs.Bool("no-rerun", false, "skip the bisection re-run; report at window granularity only")
	contextN := fs.Int("context", 3, "captured events of context to show before the first divergent event")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ooctl diverge [-json FILE] [-no-rerun] [-context N] <a.digest.jsonl> <b.digest.jsonl>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	a, err := diverge.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "ooctl: diverge:", err)
		return 1
	}
	b, err := diverge.ReadFile(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "ooctl: diverge:", err)
		return 1
	}
	rep, err := diverge.Compare(a, b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ooctl: diverge:", err)
		return 1
	}
	if !rep.Identical && !*noRerun {
		// Bisection failure degrades the report to window granularity; it
		// never hides the divergence itself.
		if err := replay.Bisect(rep, a, b, *contextN); err != nil {
			fmt.Fprintln(os.Stderr, "ooctl: diverge: bisection unavailable:", err)
		}
	}
	rep.Render(os.Stdout)
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ooctl: diverge:", err)
			return 1
		}
		werr := rep.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "ooctl: diverge:", werr)
			return 1
		}
	}
	if !rep.Identical {
		return exitRegression
	}
	return 0
}
