// Package openoptics is the public API of the OpenOptics research
// framework for optical data center networks (SIGCOMM 2024): a unified
// workflow for traffic-aware (TA) and traffic-oblivious (TO) optical
// architectures built on the time-flow table abstraction.
//
// Usage mirrors the paper's Fig. 5 programs: create a Net from a static
// Config, generate circuits with a topology function (RoundRobin, Edmonds,
// BvN, Jupiter, SORN or a custom one built on Connect), generate paths
// with a routing function (Direct, ECMP, WCMP, KSP, VLB, Opera, UCMP,
// HOHO), then DeployTopo and DeployRouting. Traffic runs on the simulated
// backend — switches with calendar-queue time-based scheduling, hosts with
// a libvma-style stack, and an emulated optical fabric — all driven by a
// deterministic discrete-event engine.
package openoptics

import (
	"encoding/json"
	"fmt"
	"os"
)

// Config is the static configuration (§4.1): hardware shape, slice timing,
// and backend service knobs. JSON field names follow the paper's examples.
type Config struct {
	// Node is the endpoint type attached to the optical fabric: "rack"
	// (switch-centric, ToRs with hosts below) or "host" (host-centric,
	// NICs directly on the fabric).
	Node string `json:"node"`
	// NodeNum is the number of endpoint nodes.
	NodeNum int `json:"node_num"`
	// Uplink is the number of optical uplinks per node.
	Uplink int `json:"uplink"`
	// HostsPerNode is the number of hosts under each rack node
	// (default 1; forced to 1 for host-centric configs).
	HostsPerNode int `json:"hosts_per_node"`
	// IPs optionally names the endpoints (cosmetic, as in Fig. 5).
	IPs []string `json:"ips,omitempty"`

	// SliceDurationNs is the optical time-slice duration (default 100 µs).
	SliceDurationNs int64 `json:"slice_duration_ns"`
	// GuardNs is the per-slice guardband; the effective guard is
	// max(GuardNs, ReconfDelayNs) (default 200 ns, the §7 value).
	GuardNs int64 `json:"guard_ns"`
	// ReconfDelayNs is the OCS circuit reconfiguration delay.
	ReconfDelayNs int64 `json:"reconf_delay_ns"`

	// LineRateGbps is the optical uplink and host NIC rate (default 100).
	LineRateGbps float64 `json:"line_rate_gbps"`
	// ElectricalGbps adds a parallel electrical fabric at this rate
	// (0 = none); used by Clos baselines and hybrid architectures.
	ElectricalGbps float64 `json:"electrical_gbps"`
	// PropDelayNs is the one-way fiber propagation delay (default 100).
	PropDelayNs int64 `json:"prop_delay_ns"`
	// CutThroughNs is the emulated fabric's cut-through latency
	// (default 700 ns).
	CutThroughNs int64 `json:"cut_through_ns"`
	// SwitchPipelineNs is the switch ingress pipeline latency
	// (default 600 ns).
	SwitchPipelineNs int64 `json:"switch_pipeline_ns"`

	// OCSCount and OCSPorts describe the physical OCS structure for
	// deploy_topo feasibility checks (defaults: Uplink devices with
	// NodeNum ports each).
	OCSCount int `json:"ocs_count"`
	OCSPorts int `json:"ocs_ports"`

	// CalendarQueues is the per-port calendar depth K (default 32).
	CalendarQueues int `json:"calendar_queues"`
	// BufferBytes is the per-switch shared buffer (default 64 MB).
	BufferBytes int64 `json:"buffer_bytes"`
	// EQOIntervalNs is the occupancy-estimation update interval
	// (default 50 ns; -1 disables estimation error).
	EQOIntervalNs int64 `json:"eqo_interval_ns"`

	// CongestionDetection enables the queue-full/threshold service.
	CongestionDetection bool `json:"congestion_detection"`
	// CongestionThresholdBytes is the per-queue CC threshold (0 = off).
	CongestionThresholdBytes int64 `json:"congestion_threshold_bytes"`
	// Response is the congestion reaction: "drop", "trim", or "defer".
	Response string `json:"response"`
	// PushBack enables last-resort traffic push-back.
	PushBack bool `json:"push_back"`
	// OffloadRank enables buffer offloading for ranks at or beyond it.
	OffloadRank int `json:"offload_rank"`

	// FlowPausing holds elephant flows on hosts until circuits appear.
	FlowPausing bool `json:"flow_pausing"`
	// ElephantBytes is the flow-aging threshold (default 1 MB).
	ElephantBytes int64 `json:"elephant_bytes"`
	// ReportIntervalNs enables host traffic reports (0 = off).
	ReportIntervalNs int64 `json:"report_interval_ns"`

	// SyncErrorNs bounds per-device clock error (default 0 = perfect
	// sync; set 28 for the paper's measured bound).
	SyncErrorNs int64 `json:"sync_error_ns"`

	// DupAckThreshold is the TCP fast-retransmit threshold (default 3).
	DupAckThreshold int `json:"dupack_threshold"`
	// RTONs is the TCP retransmission timeout (default 1 ms).
	RTONs int64 `json:"rto_ns"`
	// TDTCPDivisions enables Time-division TCP on the hosts with that
	// many per-division congestion states (0 = classic TCP). The
	// division period defaults to the slice duration.
	TDTCPDivisions int `json:"tdtcp_divisions"`

	// Seed fixes all randomness in the run.
	Seed uint64 `json:"seed"`
}

// LoadConfig reads a JSON static configuration file.
func LoadConfig(path string) (Config, error) {
	var c Config
	b, err := os.ReadFile(path)
	if err != nil {
		return c, fmt.Errorf("openoptics: %w", err)
	}
	if err := json.Unmarshal(b, &c); err != nil {
		return c, fmt.Errorf("openoptics: parsing %s: %w", path, err)
	}
	return c, nil
}

// withDefaults normalizes the configuration and applies defaults.
func (c Config) withDefaults() (Config, error) {
	if c.Node == "" {
		c.Node = "rack"
	}
	if c.Node != "rack" && c.Node != "host" {
		return c, fmt.Errorf("openoptics: node type %q (want rack|host)", c.Node)
	}
	if c.NodeNum < 2 {
		return c, fmt.Errorf("openoptics: node_num must be >= 2, got %d", c.NodeNum)
	}
	if c.Uplink < 1 {
		c.Uplink = 1
	}
	if c.Node == "host" {
		c.HostsPerNode = 1
	}
	if c.HostsPerNode < 1 {
		c.HostsPerNode = 1
	}
	if c.SliceDurationNs <= 0 {
		c.SliceDurationNs = 100_000
	}
	if c.GuardNs <= 0 {
		c.GuardNs = 200
	}
	if c.LineRateGbps <= 0 {
		c.LineRateGbps = 100
	}
	if err := checkRateGbps("line_rate_gbps", c.LineRateGbps); err != nil {
		return c, err
	}
	if c.ElectricalGbps > 0 {
		if err := checkRateGbps("electrical_gbps", c.ElectricalGbps); err != nil {
			return c, err
		}
	}
	if c.PropDelayNs <= 0 {
		c.PropDelayNs = 100
	}
	if c.CutThroughNs <= 0 {
		c.CutThroughNs = 700
	}
	if c.SwitchPipelineNs <= 0 {
		c.SwitchPipelineNs = 600
	}
	// Default to one large OCS (the testbed's MEMS device): any pairing
	// of uplink ports is then feasible. Multi-OCS planes (rotor-style,
	// one device per uplink) are opted into with ocs_count.
	if c.OCSCount <= 0 {
		c.OCSCount = 1
	}
	if c.OCSPorts <= 0 {
		c.OCSPorts = c.NodeNum * ((c.Uplink + c.OCSCount - 1) / c.OCSCount)
	}
	if c.Response == "" {
		c.Response = "drop"
	}
	switch c.Response {
	case "drop", "trim", "defer":
	default:
		return c, fmt.Errorf("openoptics: response %q (want drop|trim|defer)", c.Response)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c, nil
}

// checkRateGbps rejects a link rate the fabric's int64 bits/s cannot
// carry: under 1 bit/s it truncates to 0, and at 2^63 bits/s or more it
// overflows.
func checkRateGbps(key string, gbps float64) error {
	if bps := gbps * 1e9; !(bps >= 1 && bps < 1<<63) {
		return fmt.Errorf("openoptics: %s %g is not a representable link rate (want 1e-09 to 9.2e+09 Gbps)", key, gbps)
	}
	return nil
}

// guard returns the effective per-slice guardband.
func (c Config) guard() int64 {
	g := c.GuardNs
	if c.ReconfDelayNs > g {
		g = c.ReconfDelayNs
	}
	return g
}

// lineRateBps returns the optical line rate in bits/s.
func (c Config) lineRateBps() int64 { return int64(c.LineRateGbps * 1e9) }
