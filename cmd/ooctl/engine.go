package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"openoptics/internal/engineobs"
)

// runEngine implements `ooctl engine <chains|pressure> <engine.json>`: it
// reads the engine-observatory report written by `oosim -engine-out` and
// renders one of its two views. Every view is derived from the report's
// ordered slices only, so rendering the same file twice is byte-identical.
func runEngine(args []string) int {
	fs := flag.NewFlagSet("engine", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: ooctl engine <chains|pressure> <engine.json>

  chains    causality ledger: top event chains, scheduling edges, and the
            merge analysis (which edges a fused dispatch would eliminate)
  pressure  scheduler pressure: calendar residency, inline/spill/overflow
            push rates, bucket sorts, packet pool`)
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	view, path := fs.Arg(0), fs.Arg(1)

	r, err := loadEngineReport(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ooctl: engine:", err)
		return 1
	}
	switch view {
	case "chains":
		engineobs.RenderChains(os.Stdout, r)
	case "pressure":
		engineobs.RenderPressure(os.Stdout, r)
	default:
		fmt.Fprintf(os.Stderr, "ooctl: engine: unknown view %q (want chains|pressure)\n", view)
		return 2
	}
	return 0
}

// loadEngineReport reads and validates one engine-report JSON file.
func loadEngineReport(path string) (*engineobs.Report, error) {
	body, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r engineobs.Report
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	if r.SchemaVersion == 0 {
		return nil, fmt.Errorf("%s: not an engine report (missing schema_version)", path)
	}
	if r.SchemaVersion > engineobs.SchemaVersion {
		return nil, fmt.Errorf("%s: schema_version %d is newer than this ooctl understands (%d)",
			path, r.SchemaVersion, engineobs.SchemaVersion)
	}
	return &r, nil
}
