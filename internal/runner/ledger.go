package runner

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"

	"openoptics/internal/provenance"
)

// Record is one terminal job outcome, appended to the ledger as a JSON
// line the moment the job finishes. The ledger is both the raw result
// stream and the sweep's checkpoint: resume reads it back and skips job
// IDs that already succeeded. Wall-clock fields (elapsed, attempts) live
// here and are excluded from deterministic aggregation.
type Record struct {
	JobID    string    `json:"job_id"`
	Status   string    `json:"status"` // StatusOK or StatusFailed
	Scenario *Scenario `json:"scenario,omitempty"`
	Result   *Result   `json:"result,omitempty"`
	Error    string    `json:"error,omitempty"`
	Attempts int       `json:"attempts"`
	Panicked bool      `json:"panicked,omitempty"`
	// ElapsedMs is the job's wall-clock time.
	ElapsedMs float64 `json:"elapsed_ms"`
}

// Record statuses.
const (
	StatusOK     = "ok"
	StatusFailed = "failed"
)

// LedgerHeader is the optional first line of a ledger: the artifact schema
// version and the sweep's provenance manifest. Sweeps write it when they
// create a fresh ledger; resume appends records after it, and pre-header
// ledgers (earlier PRs) remain readable.
type LedgerHeader struct {
	Kind          string               `json:"kind"` // always "header"
	SchemaVersion int                  `json:"schema_version"`
	Manifest      *provenance.Manifest `json:"manifest,omitempty"`
}

// ledgerHeaderProbe cheaply selects lines that might be headers before
// paying a second unmarshal (the encoder always emits this key pair).
var ledgerHeaderProbe = []byte(`"kind":"header"`)

// Ledger appends records to a JSONL file, one fsync-free write per record
// (a single buffered line per job keeps a mid-sweep kill losing at most
// the in-flight record, which ReadLedger tolerates).
type Ledger struct {
	mu    sync.Mutex
	f     *os.File
	fresh bool // file was empty at open: a header may be written
}

// OpenLedger opens (creating or appending) the ledger at path.
func OpenLedger(path string) (*Ledger, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: open ledger: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("runner: stat ledger: %w", err)
	}
	return &Ledger{f: f, fresh: st.Size() == 0}, nil
}

// WriteHeader stamps a fresh ledger with the sweep's provenance header as
// its first line. Appending to an existing ledger (resume) is a no-op —
// the original run's header already leads the file (or the ledger predates
// headers and stays headerless).
func (l *Ledger) WriteHeader(m *provenance.Manifest) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.fresh {
		return nil
	}
	l.fresh = false
	b, err := json.Marshal(LedgerHeader{
		Kind: "header", SchemaVersion: provenance.SchemaVersion, Manifest: m,
	})
	if err != nil {
		return fmt.Errorf("runner: marshal ledger header: %w", err)
	}
	_, err = l.f.Write(append(b, '\n'))
	return err
}

// Append writes one record as a single JSON line.
func (l *Ledger) Append(r Record) error {
	b, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("runner: marshal record: %w", err)
	}
	b = append(b, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	_, err = l.f.Write(b)
	return err
}

// Close closes the underlying file.
func (l *Ledger) Close() error { return l.f.Close() }

// ReadLedger loads all records from a JSONL ledger. A truncated final line
// (the signature of a killed sweep) is skipped, not fatal; garbage
// anywhere else is an error. Provenance header lines are skipped — use
// ReadLedgerFull to retrieve them.
func ReadLedger(path string) ([]Record, error) {
	recs, _, err := ReadLedgerFull(path)
	return recs, err
}

// ReadLedgerFull is ReadLedger plus the ledger's provenance header (nil
// for pre-header ledgers).
func ReadLedgerFull(path string) ([]Record, *LedgerHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var recs []Record
	var hdr *LedgerHeader
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		if bytes.Contains(raw, ledgerHeaderProbe) {
			var h LedgerHeader
			if err := json.Unmarshal(raw, &h); err == nil && h.Kind == "header" {
				if hdr == nil {
					hdr = &h
				}
				continue
			}
		}
		var r Record
		if err := json.Unmarshal(raw, &r); err != nil {
			// Peek ahead: if this is the last line, it is an interrupted
			// write — drop it and resume from the previous checkpoint.
			if !sc.Scan() {
				return recs, hdr, nil
			}
			return nil, nil, fmt.Errorf("runner: ledger line %d: %w", line, err)
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		return nil, nil, fmt.Errorf("runner: read ledger: %w", err)
	}
	return recs, hdr, nil
}

// CompletedIDs returns the set of job IDs with a successful record —
// the jobs a resumed sweep skips. Failed jobs are re-attempted on resume
// (their failure may have been environmental).
func CompletedIDs(recs []Record) map[string]bool {
	done := make(map[string]bool)
	for _, r := range recs {
		if r.Status == StatusOK {
			done[r.JobID] = true
		}
	}
	return done
}
