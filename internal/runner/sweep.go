package runner

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"openoptics/internal/provenance"
)

// SweepOptions tunes one sweep execution.
type SweepOptions struct {
	// Jobs bounds worker parallelism (<= 0: runtime.NumCPU()).
	Jobs int
	// LedgerPath is the JSONL result/checkpoint file (required).
	LedgerPath string
	// Resume skips jobs the ledger already records as successful. Without
	// it, a pre-existing non-empty ledger is an error — mixing two sweeps'
	// records silently would corrupt aggregation.
	Resume bool
	// Progress, when set, receives one line per job completion with its
	// virtual/real speed ratio, like oosim's -progress-ms reports.
	Progress io.Writer
	// MetricsDir, when set, stores each job's telemetry registry (PR 1)
	// as <sanitized-job-id>.json under it.
	MetricsDir string
	// Stop, when closed, drains the sweep gracefully: in-flight jobs
	// finish and checkpoint, undispatched jobs are counted as aborted.
	// Resume picks the aborted jobs up later.
	Stop <-chan struct{}
	// OnProgress, when set, observes the running tally after every job
	// completion (calls are serialized) — the live-observability feed.
	OnProgress func(SweepProgress)
	// Manifest overrides the sweep's provenance manifest (nil: Sweep
	// captures one itself). Drivers that also publish the manifest
	// elsewhere (/runinfo) pass theirs so every artifact carries the
	// same one.
	Manifest *provenance.Manifest
}

// SweepResult summarizes a sweep execution.
type SweepResult struct {
	Total   int // jobs in the expanded grid
	Skipped int // already complete in the ledger (resume)
	OK      int
	Failed  int
	Aborted int // undispatched when the sweep was stopped
}

// SweepProgress is the live tally published while a sweep runs.
type SweepProgress struct {
	Total   int `json:"total"`   // expanded grid size
	Skipped int `json:"skipped"` // resumed as already complete
	Pending int `json:"pending"` // submitted this execution
	Done    int `json:"done"`    // completed so far (ok + failed)
	OK      int `json:"ok"`
	Failed  int `json:"failed"`
	// ElapsedMs is wall time since the first dispatch; EtaMs extrapolates
	// the remaining jobs from the mean completion rate so far.
	ElapsedMs float64 `json:"elapsed_ms"`
	EtaMs     float64 `json:"eta_ms"`
}

// Sweep expands the spec and executes it: bounded worker pool, per-job
// panic isolation, JSONL checkpointing, optional resume. It
// returns a summary; per-job outcomes are in the ledger. A sweep with
// failed jobs is not itself an error — callers decide via SweepResult.
func Sweep(spec *Spec, opt SweepOptions) (*SweepResult, error) {
	if opt.LedgerPath == "" {
		return nil, fmt.Errorf("runner: sweep needs a ledger path")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	jobs := spec.Expand()
	sr := &SweepResult{Total: len(jobs)}

	var done map[string]bool
	if st, err := os.Stat(opt.LedgerPath); err == nil && st.Size() > 0 {
		if !opt.Resume {
			return nil, fmt.Errorf("runner: ledger %s exists; resume it or choose a fresh output", opt.LedgerPath)
		}
		recs, err := ReadLedger(opt.LedgerPath)
		if err != nil {
			return nil, err
		}
		done = CompletedIDs(recs)
	}
	if opt.MetricsDir != "" {
		if err := os.MkdirAll(opt.MetricsDir, 0o755); err != nil {
			return nil, fmt.Errorf("runner: metrics dir: %w", err)
		}
	}

	pending := make([]Job, 0, len(jobs))
	for _, j := range jobs {
		if done[j.ID] {
			sr.Skipped++
			continue
		}
		pending = append(pending, j)
	}
	if len(pending) == 0 {
		return sr, nil
	}

	ledger, err := OpenLedger(opt.LedgerPath)
	if err != nil {
		return nil, err
	}
	defer ledger.Close()

	d := spec.withDefaults()
	// Provenance: a fresh ledger leads with the sweep's manifest (config
	// digest + master seed); resumed ledgers keep their original header.
	// Captured once per sweep — never inside a job.
	manifest := provenance.New(spec.ConfigDigest(), d.Seed)
	if opt.Manifest != nil {
		manifest = *opt.Manifest
	}
	if err := ledger.WriteHeader(&manifest); err != nil {
		return nil, fmt.Errorf("runner: ledger header: %w", err)
	}
	timeout := time.Duration(d.TimeoutMs) * time.Millisecond
	virtual := time.Duration(d.DurationMs) * time.Millisecond

	tasks := make([]Task, len(pending))
	for i, j := range pending {
		sc := j.Scenario
		tasks[i] = Task{ID: j.ID, Run: func() (any, error) {
			ro := RunOpts{Timeout: timeout, Manifest: &manifest}
			if opt.MetricsDir != "" {
				f, err := os.Create(filepath.Join(opt.MetricsDir, sanitize(sc.ID)+".json"))
				if err != nil {
					return nil, err
				}
				defer f.Close()
				ro.Metrics = f
			}
			return sc.Run(ro)
		}}
	}

	completed := 0
	var ledgerErr error
	prog := SweepProgress{Total: sr.Total, Skipped: sr.Skipped, Pending: len(pending)}
	start := time.Now()
	pool := &Pool{Workers: opt.Jobs, Stop: opt.Stop,
		OnDone: func(tr TaskResult) {
			completed++
			sc := pending[tr.Index].Scenario
			rec := Record{
				JobID:     tr.ID,
				Scenario:  &sc,
				Attempts:  tr.Attempts,
				Panicked:  tr.Panicked,
				ElapsedMs: float64(tr.Elapsed.Nanoseconds()) / 1e6,
			}
			if tr.Err != nil {
				rec.Status = StatusFailed
				rec.Error = tr.Err.Error()
			} else {
				rec.Status = StatusOK
				rec.Result = tr.Value.(*Result)
			}
			if err := ledger.Append(rec); err != nil && ledgerErr == nil {
				ledgerErr = err
			}
			if opt.Progress != nil {
				progressLine(opt.Progress, completed, len(pending), rec, virtual, tr.Elapsed)
			}
			if opt.OnProgress != nil {
				prog.Done = completed
				if tr.Err != nil {
					prog.Failed++
				} else {
					prog.OK++
				}
				elapsed := time.Since(start)
				prog.ElapsedMs = float64(elapsed.Nanoseconds()) / 1e6
				prog.EtaMs = prog.ElapsedMs / float64(completed) * float64(len(pending)-completed)
				opt.OnProgress(prog)
			}
		}}
	for _, tr := range pool.Run(tasks) {
		switch {
		case tr.Attempts == 0:
			sr.Aborted++
		case tr.Err != nil:
			sr.Failed++
		default:
			sr.OK++
		}
	}
	if ledgerErr != nil {
		return sr, fmt.Errorf("runner: ledger write: %w", ledgerErr)
	}
	return sr, nil
}

// progressLine prints one completion: how much virtual time the job
// covered and the virtual/real speed ratio.
func progressLine(w io.Writer, done, total int, rec Record, virtual, elapsed time.Duration) {
	ratio := 0.0
	if elapsed > 0 {
		ratio = float64(virtual) / float64(elapsed)
	}
	fmt.Fprintf(w, "sweep: [%d/%d] %-9s %-40s %6.1fs %8.3gx real\n",
		done, total, rec.Status, rec.JobID, elapsed.Seconds(), ratio)
}

// sanitize maps a job ID to a filesystem-safe name.
func sanitize(id string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ':', ' ':
			return '_'
		}
		return r
	}, id)
}
