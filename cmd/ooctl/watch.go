package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"openoptics"
	"openoptics/internal/runner"
)

// runWatch implements `ooctl watch <addr>`: poll a live observability
// server's /snapshot endpoint and render a per-switch calendar-queue
// occupancy and drop table, refreshed in place. When the server publishes
// sweep progress instead of network snapshots (oosweep -http), the sweep
// tally is rendered instead.
func runWatch(args []string) int {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	interval := fs.Duration("interval", time.Second, "poll interval (wall clock)")
	once := fs.Bool("once", false, "fetch and render a single snapshot, then exit")
	noClear := fs.Bool("no-clear", false, "append frames instead of redrawing in place")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: ooctl watch [-interval D] [-once] [-no-clear] <addr>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	base := fs.Arg(0)
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")
	client := &http.Client{Timeout: 5 * time.Second}

	rates := &watchRates{}
	for {
		frame, err := fetchFrame(client, base, rates)
		if err != nil {
			if *once {
				fmt.Fprintln(os.Stderr, "ooctl: watch:", err)
				return 1
			}
			fmt.Fprintln(os.Stderr, "ooctl: watch:", err)
		} else {
			if !*once && !*noClear {
				fmt.Print("\033[H\033[2J") // cursor home + clear screen
			}
			fmt.Print(frame)
		}
		if *once {
			return 0
		}
		time.Sleep(*interval)
	}
}

// watchRates derives events/sec and packets/sec between successive frames
// from the poller's wall clock. Nil (or a first frame) renders no rate.
type watchRates struct {
	lastWall   time.Time
	lastEvents uint64
	lastPkts   uint64
	have       bool
}

// observe returns the rate suffix for this frame and records it as the new
// baseline.
func (r *watchRates) observe(s *openoptics.NetSnapshot) string {
	if r == nil {
		return ""
	}
	now := time.Now()
	defer func() {
		r.lastWall, r.lastEvents, r.lastPkts, r.have = now, s.Events, s.Pool.Gets, true
	}()
	dt := now.Sub(r.lastWall).Seconds()
	if !r.have || dt <= 0 || s.Events < r.lastEvents {
		return ""
	}
	return fmt.Sprintf("  %s ev/s  %s pkt/s",
		siRate(float64(s.Events-r.lastEvents)/dt),
		siRate(float64(s.Pool.Gets-r.lastPkts)/dt))
}

// siRate formats a per-second rate with k/M suffixes.
func siRate(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// fetchFrame renders one watch frame: the network snapshot when the server
// publishes one, otherwise the sweep progress tally. rates (nilable) adds
// events/sec derived from the previous frame.
func fetchFrame(client *http.Client, base string, rates *watchRates) (string, error) {
	body, status, err := get(client, base+"/snapshot")
	if err != nil {
		return "", err
	}
	if status == http.StatusOK {
		var snap openoptics.NetSnapshot
		if err := json.Unmarshal(body, &snap); err != nil {
			return "", fmt.Errorf("decoding /snapshot: %w", err)
		}
		return renderSnapshot(&snap, rates.observe(&snap)), nil
	}
	// No snapshot published (e.g. an oosweep server): try the progress
	// endpoint before giving up.
	body, pstatus, perr := get(client, base+"/progress")
	if perr == nil && pstatus == http.StatusOK {
		var p runner.SweepProgress
		if err := json.Unmarshal(body, &p); err != nil {
			return "", fmt.Errorf("decoding /progress: %w", err)
		}
		return renderProgress(&p), nil
	}
	return "", fmt.Errorf("GET %s/snapshot: HTTP %d", base, status)
}

func get(client *http.Client, url string) ([]byte, int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	return body, resp.StatusCode, nil
}

// maxQueueCols bounds the per-slice queue columns so deep calendars stay
// readable; queues beyond it are folded into a "rest" column.
const maxQueueCols = 8

// renderSnapshot formats the per-switch/per-slice occupancy and drop table
// plus an engine-health line. rateSuffix (possibly empty) carries the
// poller-derived events/sec.
func renderSnapshot(s *openoptics.NetSnapshot, rateSuffix string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "t=%.3f ms  slice %d/%d  events %d  circuits %d  epoch %d  reconfigs %d\n",
		float64(s.TimeNs)/1e6, s.Slice, s.NumSlices, s.Events, len(s.Optical.Circuits),
		s.Epoch, s.Reconfigs)
	e := s.Engine
	spillPct := 0.0
	if pushes := e.InlinePushes + e.SpillPushes + e.OverflowPushes; pushes > 0 {
		spillPct = 100 * float64(e.SpillPushes+e.OverflowPushes) / float64(pushes)
	}
	fmt.Fprintf(&b, "engine: pending %d (max wheel %d)  spill %.2f%%  resorts %d  clamps %d  pool %d live / %d hw / %d slabs%s\n",
		e.PendingEvents, e.MaxWheelEvents, spillPct, e.Resorts, e.Clamps,
		s.Pool.Outstanding, s.Pool.HighWater, s.Pool.Slabs, rateSuffix)
	if d := s.Digest; d != nil {
		fmt.Fprintf(&b, "auditor: events %d  windows %d  chain %s  violations %d\n",
			d.Events, d.Windows, d.Chain, d.Violations)
	}

	// Per-switch uplink occupancy summed per calendar-queue index.
	k := 0
	for _, sw := range s.Switches {
		for _, p := range sw.Ports {
			if p.Kind == "uplink" && len(p.Queues) > k {
				k = len(p.Queues)
			}
		}
	}
	cols := k
	if cols > maxQueueCols {
		cols = maxQueueCols
	}
	fmt.Fprintf(&b, "%-5s %10s", "node", "buf B")
	for q := 0; q < cols; q++ {
		fmt.Fprintf(&b, " %8s", fmt.Sprintf("q%d B", q))
	}
	if k > cols {
		fmt.Fprintf(&b, " %8s", "rest B")
	}
	fmt.Fprintf(&b, " %8s %8s %8s %8s\n", "eqo|err|", "drops", "congest", "misses")

	for _, sw := range s.Switches {
		qb := make([]int64, k)
		var worstErr int64
		for _, p := range sw.Ports {
			if p.Kind != "uplink" {
				continue
			}
			for qi, q := range p.Queues {
				qb[qi] += q.Bytes
				if e := q.EstBytes - q.Bytes; e > worstErr {
					worstErr = e
				} else if -e > worstErr {
					worstErr = -e
				}
			}
		}
		fmt.Fprintf(&b, "N%-4d %10d", sw.Node, sw.BufferedBytes)
		var rest int64
		for q := 0; q < k; q++ {
			if q < cols {
				cell := fmt.Sprintf("%d", qb[q])
				if q == sw.ActiveQueue {
					cell += "*"
				}
				fmt.Fprintf(&b, " %8s", cell)
			} else {
				rest += qb[q]
			}
		}
		if k > cols {
			fmt.Fprintf(&b, " %8d", rest)
		}
		fmt.Fprintf(&b, " %8d %8d %8d %8d\n",
			worstErr, sw.Counters.Drops(), sw.Counters.CongestionHits(), sw.Counters.SliceMisses)
	}
	fmt.Fprintf(&b, "totals: rx %d  tx %d  delivered %d  drops %d  congest %d  (* = active queue)\n",
		s.Totals.RxPkts, s.Totals.TxPkts, s.Totals.Delivered,
		s.Totals.Drops(), s.Totals.CongestionHits())
	return b.String()
}

// renderProgress formats the oosweep tally.
func renderProgress(p *runner.SweepProgress) string {
	var b strings.Builder
	fmt.Fprintf(&b, "sweep: %d/%d done (%d ok, %d failed), %d skipped of %d total\n",
		p.Done, p.Pending, p.OK, p.Failed, p.Skipped, p.Total)
	fmt.Fprintf(&b, "elapsed %.1fs, eta %.1fs\n", p.ElapsedMs/1e3, p.EtaMs/1e3)
	return b.String()
}
