package main

import (
	"fmt"
	"time"

	"openoptics"
	"openoptics/internal/arch"
	"openoptics/internal/core"
	"openoptics/internal/sim"
	"openoptics/internal/traffic"
)

// The fixed virtual window every workload is driven through: Poisson flow
// arrivals for the first 20 ms, then 5 ms more for in-flight flows to
// drain — the duration + duration/4 shape oosim runs.
const (
	arrivalsNs = 20_000_000
	windowNs   = 25_000_000
)

// defaultSeed is the `make engine-smoke` seed; the reference band is
// recorded for it.
const defaultSeed = 7

// workload is one scenario: an architecture from internal/arch under a
// replayed flow trace. Its fields are the workload parameters the run
// manifest's config digest covers.
type workload struct {
	Name     string             `json:"name"`
	Arch     string             `json:"arch"`
	Nodes    int                `json:"nodes"`
	Trace    string             `json:"trace"`
	Load     float64            `json:"load"`
	HotFrac  float64            `json:"hot_frac,omitempty"`
	HotPairs int                `json:"hot_pairs,omitempty"`
	Demand   *arch.DemandConfig `json:"demand,omitempty"`
}

// workloads are chosen to stress different layers: vlb-rpc is the optical
// data-plane hot path (calendar queues, rotation, optical relay, TCP),
// clos-hadoop bypasses every optical mechanism and pushes the densest
// event stream through the scheduler and electrical pipeline, and
// daware-hotswap is the only one whose measured window runs routing and
// the demand-aware control loop.
var workloads = []*workload{
	{Name: "vlb-rpc", Arch: "rotornet-vlb", Nodes: 16, Trace: "rpc", Load: 0.3},
	{Name: "clos-hadoop", Arch: "clos", Nodes: 16, Trace: "hadoop", Load: 0.4},
	{Name: "daware-hotswap", Arch: "daware", Nodes: 12, Trace: "rpc", Load: 0.3,
		HotFrac: 0.5, HotPairs: 2,
		Demand: &arch.DemandConfig{
			Policy:         "aware",
			Predictor:      "last",
			CollectEvery:   500 * time.Microsecond,
			ReprogramEvery: time.Millisecond,
			DrainNs:        5_000,
		}},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// build calls the workload's internal/arch constructor, as oosim and
// oosweep do.
func (w *workload) build(seed uint64) (*arch.Instance, error) {
	o := arch.Options{Nodes: w.Nodes, HostsPerNode: 1, Seed: seed}
	switch w.Arch {
	case "rotornet-vlb":
		return arch.RotorNet(o, arch.SchemeVLB)
	case "clos":
		return arch.Clos(o)
	case "daware":
		return arch.DemandAware(o, *w.Demand)
	}
	return nil, fmt.Errorf("workload %s: unknown architecture %q", w.Name, w.Arch)
}

// redeploy re-issues, one call at a time, the topology, routing and deploy
// calls the workload's constructor made, recording a span around each.
// Repeating a deployment with identical inputs is idempotent, so the
// traced run's simulated outcome stays equal to the untraced one (which
// the benchmark checks).
func (w *workload) redeploy(n *openoptics.Net, sp *spanLog, parent int) error {
	var ro openoptics.RoutingOptions
	if w.Arch == "clos" {
		id := sp.begin("routing", parent)
		paths, err := n.ElectricalPaths()
		sp.end(id)
		if err != nil {
			return err
		}
		id = sp.begin("controller.deploy", parent)
		err = n.DeployRouting(paths, core.LookupHop, core.MultipathNone)
		sp.end(id)
		return err
	}
	id := sp.begin("topo", parent)
	circuits, numSlices, err := openoptics.RoundRobin(n.Cfg.NodeNum, n.Cfg.Uplink)
	sp.end(id)
	if err != nil {
		return err
	}
	id = sp.begin("controller.deploy", parent)
	err = n.DeployTopo(circuits, numSlices)
	sp.end(id)
	if err != nil {
		return err
	}
	id = sp.begin("routing", parent)
	var paths []core.Path
	lookup, mp := core.LookupHop, core.MultipathPacket
	if w.Arch == "daware" {
		paths = n.HOHO(circuits, numSlices, ro)
		lookup, mp = core.LookupSource, core.MultipathNone
	} else {
		paths = n.VLB(circuits, numSlices, ro)
	}
	sp.end(id)
	id = sp.begin("controller.deploy", parent)
	err = n.DeployRouting(paths, lookup, mp)
	sp.end(id)
	return err
}

// instance is one built workload, armed and ready to run.
type instance struct {
	in     *arch.Instance
	replay *traffic.Replay
	sink   *traffic.Sink
}

// startTraffic attaches the flow-completion sink and schedules the seeded
// Poisson arrivals over the plan's arrival window.
func (p plan) startTraffic(in *arch.Instance) (*instance, error) {
	w := p.w
	eps := in.Net.Endpoints()
	sink := traffic.NewSink(eps)
	cdf, err := traffic.ByName(w.Trace)
	if err != nil {
		return nil, err
	}
	rp, err := traffic.NewReplay(in.Net.Engine(), eps, cdf, w.Load,
		int64(in.Net.Cfg.LineRateGbps*1e9), p.seed)
	if err != nil {
		return nil, err
	}
	rp.HotFrac = w.HotFrac
	rp.HotPairs = w.HotPairs
	rp.Start(p.arrivalsNs)
	return &instance{in: in, replay: rp, sink: sink}, nil
}

// setup builds the workload and arms the network: topology, routing,
// table compile, traffic started. Its duration is setup_s.
func (p plan) setup() (*instance, error) {
	in, err := p.w.build(p.seed)
	if err != nil {
		return nil, err
	}
	inst, err := p.startTraffic(in)
	if err != nil {
		return nil, err
	}
	in.Net.Start()
	return inst, nil
}

// outcome is a run's simulated result: the values compared between runs
// of one seed and against the reference band.
type outcome struct {
	Events         uint64  `json:"events"`
	Packets        uint64  `json:"packets"`
	FlowsStarted   uint64  `json:"flows_started"`
	FlowsCompleted uint64  `json:"flows_completed"`
	FCTP50Ns       float64 `json:"fct_p50_ns"`
	FCTP99Ns       float64 `json:"fct_p99_ns"`
	Drops          uint64  `json:"drops"`
	Reprograms     uint64  `json:"reprograms"`
}

// counts are the layer counters a run leaves behind. Like the outcome,
// they repeat exactly between runs of one seed, traced or not.
type counts struct {
	Classes          [sim.NumClasses]uint64
	InlinePushes     uint64
	SpillPushes      uint64
	OverflowPushes   uint64
	Resorts          uint64
	MaxWheelEvents   int
	PoolPuts         uint64
	PoolOutstanding  int
	PoolHighWater    int
	RxPkts           uint64
	Delivered        uint64
	SliceMisses      uint64
	OpticalForwarded uint64
	Retransmissions  uint64
}

// fingerprint is everything a run must reproduce exactly.
type fingerprint struct {
	Outcome outcome
	Counts  counts
}

// fingerprint reads the finished run's outcome and counters from outside
// the program, through the public accessors.
func (x *instance) fingerprint() fingerprint {
	n := x.in.Net
	eng := n.Engine()
	sw := n.Counters()
	opt := n.OpticalFabric()
	pool := n.PoolStats()
	fct := x.sink.FCTSample(traffic.PortReplay)
	drops := sw.DropsNoRoute + sw.DropsBuffer + sw.DropsWrap + sw.DropsCongest + sw.DropsTTL +
		opt.DropsGuard + opt.DropsNoCircuit + opt.DropsReconfig
	if el := n.ElectricalFabric(); el != nil {
		drops += el.DropsQueue + el.DropsNoRoute
	}
	var retx uint64
	for _, ep := range n.Endpoints() {
		retx += ep.Stack.Counters.Retransmissions
	}
	sp := eng.SchedPressure()
	c := counts{
		InlinePushes:     sp.InlinePushes,
		SpillPushes:      sp.SpillPushes,
		OverflowPushes:   sp.OverflowPushes,
		Resorts:          sp.Resorts,
		MaxWheelEvents:   sp.MaxWheelEvents,
		PoolPuts:         pool.Puts,
		PoolOutstanding:  pool.Outstanding,
		PoolHighWater:    pool.HighWater,
		RxPkts:           sw.RxPkts,
		Delivered:        sw.Delivered,
		SliceMisses:      sw.SliceMisses,
		OpticalForwarded: opt.Forwarded,
		Retransmissions:  retx,
	}
	for _, cs := range eng.ProfileStats() {
		c.Classes[cs.Class] = cs.Count
	}
	return fingerprint{
		Outcome: outcome{
			Events:         eng.Processed,
			Packets:        pool.Gets,
			FlowsStarted:   x.replay.Started,
			FlowsCompleted: uint64(fct.N()),
			FCTP50Ns:       fct.Percentile(50),
			FCTP99Ns:       fct.Percentile(99),
			Drops:          drops,
			Reprograms:     n.Reconfigs(),
		},
		Counts: c,
	}
}
