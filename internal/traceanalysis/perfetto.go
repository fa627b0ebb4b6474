package traceanalysis

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"openoptics/internal/core"
)

// Chrome trace-event export: renders a trace set as JSON that loads
// directly in ui.perfetto.dev (or chrome://tracing). The layout maps the
// network onto the profiler's process/thread model:
//
//   - each endpoint node is a "process" (pid = node+2), the fabric pid 1;
//   - tid 1 carries the per-hop dwell slices — a "wait" span (TimeNs →
//     DeqNs, named slice_wait or queueing per the hop kind) nested-free
//     next to a "tx" span (DeqNs → TxDoneNs);
//   - counter tracks show the enqueue-time queue depth and, on calendar
//     hops, the departure slice — the slice counter stepping is the
//     rotation made visible;
//   - sampled packets become flow arrows (s/t/f events, id = packet ID)
//     stitching their hops across processes, and drops become instant
//     events named by reason.
//
// Virtual nanoseconds map to trace microseconds (Perfetto's native unit)
// as ts = ns/1000, keeping sub-µs resolution via fractional timestamps.

// ExportOptions bounds the export.
type ExportOptions struct {
	// MaxFlowPackets caps how many packets get flow arrows (arrows are
	// per-packet and visually heavy; the dwell slices always cover every
	// record). 0 means DefaultMaxFlowPackets; negative disables arrows.
	MaxFlowPackets int
}

// DefaultMaxFlowPackets bounds flow-arrow emission by default.
const DefaultMaxFlowPackets = 256

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int64          `json:"pid"`
	Tid  int64          `json:"tid"`
	ID   string         `json:"id,omitempty"`
	BP   string         `json:"bp,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

const (
	pidFabric = 1
	tidHops   = 1
)

func nodePid(n core.NodeID) int64 {
	if n == core.NoNode {
		return pidFabric
	}
	return int64(n) + 2
}

func usec(ns int64) float64 { return float64(ns) / 1e3 }

// ExportChromeTrace writes the trace set as Chrome trace-event JSON. The
// output is deterministic: events are emitted in input order, sorted by
// (ts, input order) with a stable sort, and all JSON maps have their keys
// sorted by encoding/json.
func ExportChromeTrace(w io.Writer, traces []*core.PktTrace, opts ExportOptions) error {
	maxArrows := opts.MaxFlowPackets
	if maxArrows == 0 {
		maxArrows = DefaultMaxFlowPackets
	}
	var evs []chromeEvent
	pids := map[int64]string{}
	arrows := 0
	for _, tr := range traces {
		emitDwell(&evs, pids, tr)
		if maxArrows > 0 && arrows < maxArrows && tr.Disposition == core.DispDelivered && len(tr.Hops) > 1 {
			emitArrows(&evs, tr)
			arrows++
		}
		if tr.Disposition == core.DispDropped {
			evs = append(evs, chromeEvent{
				Name: "drop:" + string(tr.Reason), Cat: "drop", Ph: "i",
				Ts: usec(tr.EndNs), Pid: nodePid(tr.EndNode), Tid: tidHops, S: "p",
				Args: map[string]any{"pkt": tr.PktID, "flow": tr.Flow, "hops": len(tr.Hops)},
			})
			touchPid(pids, tr.EndNode)
		}
	}
	// Process-name metadata first, then time-sorted events. Metadata is
	// emitted in pid order for determinism.
	meta := make([]chromeEvent, 0, len(pids))
	for pid := range pids {
		meta = append(meta, chromeEvent{
			Name: "process_name", Ph: "M", Pid: pid, Tid: 0,
			Args: map[string]any{"name": pids[pid]},
		})
	}
	sort.Slice(meta, func(i, j int) bool { return meta[i].Pid < meta[j].Pid })
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Ts < evs[j].Ts })

	out := chromeTrace{TraceEvents: append(meta, evs...), DisplayTimeUnit: "ns"}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

func touchPid(pids map[int64]string, n core.NodeID) {
	pid := nodePid(n)
	if _, ok := pids[pid]; ok {
		return
	}
	if n == core.NoNode {
		pids[pid] = "fabric"
	} else {
		pids[pid] = "node " + strconv.Itoa(int(n))
	}
}

// emitDwell renders one trace's hops as wait/tx spans plus queue-depth and
// slice counters.
func emitDwell(evs *[]chromeEvent, pids map[int64]string, tr *core.PktTrace) {
	for i := range tr.Hops {
		h := &tr.Hops[i]
		pid := nodePid(h.Node)
		touchPid(pids, h.Node)
		*evs = append(*evs, chromeEvent{
			Name: "queue_bytes", Ph: "C", Ts: usec(h.TimeNs), Pid: pid, Tid: 0,
			Args: map[string]any{"bytes": h.QueueBytes},
		})
		if h.Calendar() {
			*evs = append(*evs, chromeEvent{
				Name: "dep_slice", Ph: "C", Ts: usec(h.TimeNs), Pid: pid, Tid: 0,
				Args: map[string]any{"slice": int64(h.DepSlice)},
			})
		}
		if h.TxDoneNs == 0 && h.DeqNs == 0 {
			continue // never dequeued (dropped while queued)
		}
		waitName := "queueing"
		if h.Calendar() {
			waitName = "slice_wait"
		}
		args := map[string]any{"pkt": tr.PktID, "flow": tr.Flow,
			"egress": int64(h.Egress), "dep_slice": int64(h.DepSlice)}
		if h.DeqNs > h.TimeNs {
			*evs = append(*evs, chromeEvent{
				Name: waitName, Cat: "wait", Ph: "X",
				Ts: usec(h.TimeNs), Dur: usec(h.DeqNs - h.TimeNs),
				Pid: pid, Tid: tidHops, Args: args,
			})
		}
		if h.TxDoneNs > h.DeqNs {
			*evs = append(*evs, chromeEvent{
				Name: "tx", Cat: "tx", Ph: "X",
				Ts: usec(h.DeqNs), Dur: usec(h.TxDoneNs - h.DeqNs),
				Pid: pid, Tid: tidHops, Args: args,
			})
		}
	}
}

// emitArrows stitches a delivered packet's hops with s/t/f flow events.
func emitArrows(evs *[]chromeEvent, tr *core.PktTrace) {
	id := strconv.FormatUint(tr.PktID, 10)
	for i := range tr.Hops {
		h := &tr.Hops[i]
		ph := "t"
		switch i {
		case 0:
			ph = "s"
		case len(tr.Hops) - 1:
			ph = "f"
		}
		ev := chromeEvent{
			Name: "pkt " + id, Cat: "pkt", Ph: ph, ID: id,
			Ts: usec(h.TimeNs), Pid: nodePid(h.Node), Tid: tidHops,
		}
		if ph == "f" {
			ev.BP = "e"
		}
		*evs = append(*evs, ev)
	}
}

// ValidateChromeTrace decodes b and reports the event count — the check
// the export tests run over a fixture's and a fresh oosim run's export.
func ValidateChromeTrace(b []byte) (int, error) {
	var ct chromeTrace
	if err := json.Unmarshal(b, &ct); err != nil {
		return 0, fmt.Errorf("traceanalysis: invalid chrome trace: %w", err)
	}
	for i, ev := range ct.TraceEvents {
		if ev.Ph == "" {
			return 0, fmt.Errorf("traceanalysis: event %d missing ph", i)
		}
	}
	return len(ct.TraceEvents), nil
}
