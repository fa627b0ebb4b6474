package openoptics

import (
	"fmt"
	"time"

	"openoptics/internal/controller"
	"openoptics/internal/core"
	"openoptics/internal/fabric"
	"openoptics/internal/hostsim"
	"openoptics/internal/sim"
	"openoptics/internal/switchsim"
	"openoptics/internal/syncproto"
	"openoptics/internal/telemetry"
	"openoptics/internal/traffic"
	"openoptics/internal/transport"
)

// Net is an OpenOptics network instance: endpoint switches and hosts wired
// to an emulated optical fabric (and optionally an electrical fabric),
// plus the optical controller's deployment entry points of Table 1.
type Net struct {
	Cfg Config

	eng   *sim.Engine
	sched *core.Schedule
	// pool is the per-net packet slab pool every device on this Net
	// allocates from; sinks (delivery, drops) recycle into it. Per-net
	// rather than global so concurrent sweep jobs in one process never
	// contend.
	pool *core.PacketPool

	optical *fabric.OpticalFabric
	elec    *fabric.ElectricalFabric
	cp      *switchsim.ControlPlane

	switches []*switchsim.Switch
	hosts    []*hostsim.Host
	stacks   []*transport.Stack

	syncModel *syncproto.Model

	// ix indexes the deployed schedule's circuits; routing deployments
	// compile against it.
	ix      *core.ConnIndex
	started bool

	// epoch/reconfigs/lastReprogramNs track mid-run schedule hot-swaps
	// (Net.Reprogram); the observability plane attributes anomalies to
	// reconfiguration events through them.
	epoch           int
	reconfigs       uint64
	lastReprogramNs int64

	// onMetrics holds deferred registry hooks (OnMetrics) until Metrics()
	// builds the registry.
	onMetrics []func(*telemetry.Registry)

	// reg is the lazily built metrics registry (observe.go).
	reg *telemetry.Registry
	// tracer is the attached in-band packet tracer, if any (observe.go).
	tracer *telemetry.Tracer

	// audit is the attached determinism auditor (audit.go), nil when off.
	audit *Auditor
	// flightDump, set by AttachFlightRecorder, forces a flight-recorder
	// dump with a reason — the auditor fires it on invariant violations.
	flightDump func(reason string)
}

// New builds a network from the static configuration. The returned Net is
// idle: deploy a topology and routing, start applications on Endpoints(),
// then Run.
func New(cfg Config) (*Net, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	eng := sim.New()
	n := &Net{
		Cfg:  cfg,
		eng:  eng,
		pool: core.NewPacketPool(),
		sched: &core.Schedule{
			NumSlices:     1,
			SliceDuration: time.Duration(cfg.SliceDurationNs),
			Guard:         time.Duration(cfg.guard()),
		},
		optical:   fabric.NewOpticalFabric(eng),
		cp:        switchsim.NewControlPlane(eng),
		syncModel: syncproto.NewModel(cfg.SyncErrorNs, cfg.Seed),
	}
	n.ix = core.NewConnIndex(n.sched)
	if cfg.SyncErrorNs == 0 {
		n.syncModel = nil
	}
	n.optical.CutThroughDelay = cfg.CutThroughNs
	if cfg.ElectricalGbps > 0 {
		n.elec = fabric.NewElectricalFabric(eng)
		n.elec.PipelineDelay = cfg.SwitchPipelineNs
	}

	lineBps := cfg.lineRateBps()
	resp := switchsim.RespDrop
	switch cfg.Response {
	case "trim":
		resp = switchsim.RespTrim
	case "defer":
		resp = switchsim.RespDefer
	}

	conns := new(transport.Conns)
	for i := 0; i < cfg.NodeNum; i++ {
		node := core.NodeID(i)
		var off int64
		if n.syncModel != nil {
			off = n.syncModel.OffsetFor(uint64(i))
		}
		sw := switchsim.New(eng, switchsim.Config{
			ID:                       node,
			Schedule:                 n.sched,
			NumCalendarQueues:        cfg.CalendarQueues,
			BufferBytes:              cfg.BufferBytes,
			PipelineDelay:            cfg.SwitchPipelineNs,
			ClockOffset:              off,
			EQOUpdateInterval:        cfg.EQOIntervalNs,
			CongestionDetection:      cfg.CongestionDetection,
			CongestionThresholdBytes: cfg.CongestionThresholdBytes,
			Response:                 resp,
			PushBack:                 cfg.PushBack,
			OffloadRank:              cfg.OffloadRank,
			Seed:                     cfg.Seed ^ uint64(i)<<16,
		}, cfg.NodeNum)
		sw.AttachControlPlane(n.cp)
		sw.Pool = n.pool
		n.switches = append(n.switches, sw)

		// Optical uplinks.
		for u := 0; u < cfg.Uplink; u++ {
			fp := core.PortID(i*cfg.Uplink + u)
			link := fabric.NewLink(eng,
				fabric.Endpoint{Dev: sw, Port: core.PortID(u)},
				fabric.Endpoint{Dev: n.optical, Port: fp},
				lineBps, cfg.PropDelayNs)
			n.optical.Attach(node, core.PortID(u), link)
			sw.AttachUplink(core.PortID(u), link)
		}
		// Electrical uplink.
		if n.elec != nil {
			ep := n.elecPort()
			link := fabric.NewLink(eng,
				fabric.Endpoint{Dev: sw, Port: ep},
				fabric.Endpoint{Dev: n.elec, Port: 0},
				int64(cfg.ElectricalGbps*1e9), cfg.PropDelayNs)
			n.elec.Attach(node, link)
			sw.AttachElectrical(ep, link)
		}
		// Hosts and downlinks.
		for j := 0; j < cfg.HostsPerNode; j++ {
			hid := core.HostID(i*cfg.HostsPerNode + j)
			var hoff int64
			if n.syncModel != nil {
				hoff = n.syncModel.OffsetFor(0x80000000 | uint64(hid))
			}
			h := hostsim.New(eng, hostsim.Config{
				ID:             hid,
				Node:           node,
				Schedule:       n.sched,
				ClockOffset:    hoff,
				FlowPausing:    cfg.FlowPausing,
				ElephantBytes:  cfg.ElephantBytes,
				ReportInterval: cfg.ReportIntervalNs,
				Seed:           cfg.Seed ^ uint64(hid)<<24,
			})
			dp := core.PortID(cfg.Uplink + j)
			if n.elec != nil {
				dp = core.PortID(cfg.Uplink + 1 + j)
			}
			link := fabric.NewLink(eng,
				fabric.Endpoint{Dev: sw, Port: dp},
				fabric.Endpoint{Dev: h, Port: 0},
				lineBps, cfg.PropDelayNs/2+1)
			sw.AttachDownlink(dp, hid, link)
			h.AttachLink(link)
			h.Pool = n.pool
			n.hosts = append(n.hosts, h)
			st := transport.NewStack(eng, h, conns, transport.TCPConfig{
				DupAckThreshold: cfg.DupAckThreshold,
				RTO:             cfg.RTONs,
				TDTCPDivisions:  cfg.TDTCPDivisions,
				TDTCPPeriodNs:   cfg.SliceDurationNs,
			})
			st.Pool = n.pool
			n.stacks = append(n.stacks, st)
		}
	}
	if Observe != nil {
		Observe(n)
	}
	return n, nil
}

// Observe, when set, is invoked with every Net this package constructs,
// right after construction and before topology deployment. It is the hook
// command-line drivers use to attach telemetry (tracers, metrics
// registries, engine profiling) to networks built deep inside experiment
// drivers, without threading options through every driver.
var Observe func(*Net)

// elecPort returns the switch port wired to the electrical fabric.
func (n *Net) elecPort() core.PortID { return core.PortID(n.Cfg.Uplink) }

// ElectricalPort returns the switch port wired to the electrical fabric,
// for programs that hand-craft hybrid paths.
func (n *Net) ElectricalPort() core.PortID { return n.elecPort() }

// isExternalPort reports whether (node, port) exits the optical schedule.
func (n *Net) isExternalPort(_ core.NodeID, p core.PortID) bool {
	return n.elec != nil && p == n.elecPort()
}

// Engine exposes the discrete-event engine (applications schedule on it).
func (n *Net) Engine() *sim.Engine { return n.eng }

// PacketPool exposes the per-net packet slab pool (leak diagnostics; the
// Outstanding count must be zero once all in-flight packets reach a sink).
func (n *Net) PacketPool() *core.PacketPool { return n.pool }

// Schedule returns the deployed optical schedule.
func (n *Net) Schedule() *core.Schedule { return n.sched }

// Switches returns the endpoint switches, indexed by node id.
func (n *Net) Switches() []*switchsim.Switch { return n.switches }

// Hosts returns all hosts, indexed by host id.
func (n *Net) Hosts() []*hostsim.Host { return n.hosts }

// OpticalFabric returns the emulated optical fabric.
func (n *Net) OpticalFabric() *fabric.OpticalFabric { return n.optical }

// ElectricalFabric returns the electrical fabric (nil if not configured).
func (n *Net) ElectricalFabric() *fabric.ElectricalFabric { return n.elec }

// Endpoints returns the application handles, one per host.
func (n *Net) Endpoints() []traffic.Endpoint {
	eps := make([]traffic.Endpoint, len(n.hosts))
	for i, h := range n.hosts {
		eps[i] = traffic.Endpoint{Host: h.Cfg.ID, Node: h.Cfg.Node, Stack: n.stacks[i]}
	}
	return eps
}

// DeployTopo implements deploy_topo() (Table 1): feasibility-check the
// circuits against the configured OCS structure and program the optical
// fabric. numSlices is the optical cycle length the circuits were
// generated for (1 for TA/static topologies). The cycle length is fixed
// once the network has started; only the circuits may change afterwards
// (TA reconfiguration, SORN re-skewing). The deployed routing stays as it
// is. A rejected schedule changes nothing.
func (n *Net) DeployTopo(circuits []core.Circuit, numSlices int) error {
	p, err := n.compileTopo(circuits, numSlices)
	if err != nil {
		return err
	}
	n.install(p)
	return nil
}

// DeployRouting implements deploy_routing() (Table 1): compile the paths
// against the deployed schedule and replace every node's time-flow table.
// A rejected path set changes nothing.
func (n *Net) DeployRouting(paths []core.Path, lookup core.LookupMode, mp core.MultipathMode) error {
	r, err := n.compileRouting(n.ix, paths, lookup, mp)
	if err != nil {
		return err
	}
	n.install(&program{routing: r})
	return nil
}

// program is one deployment checked and compiled on candidate values,
// before any of it touches the network: a schedule with the fabric's
// connection table and its circuit index (ix nil: the deployed topology
// stays), and the time-flow tables (routing nil: the deployed routing
// stays).
type program struct {
	sched   core.Schedule
	conn    *fabric.ConnTable
	ix      *core.ConnIndex
	routing *controller.CompiledRouting
}

// compileTopo checks a schedule whole — cycle length, schedule validity,
// OCS feasibility, the fabric's attachments — and compiles it.
func (n *Net) compileTopo(circuits []core.Circuit, numSlices int) (*program, error) {
	if numSlices < 1 {
		return nil, fmt.Errorf("openoptics: numSlices must be >= 1")
	}
	if n.started && numSlices != n.sched.NumSlices {
		return nil, fmt.Errorf("openoptics: cycle length is fixed after start (%d != %d)",
			numSlices, n.sched.NumSlices)
	}
	p := &program{sched: core.Schedule{
		NumSlices:     numSlices,
		SliceDuration: n.sched.SliceDuration,
		Guard:         n.sched.Guard,
		Circuits:      circuits,
	}}
	if _, err := controller.CompileTopo(&p.sched, controller.OCSStructure{
		Count:          n.Cfg.OCSCount,
		PortsPerOCS:    n.Cfg.OCSPorts,
		UplinksPerNode: n.Cfg.Uplink,
		ReconfDelayNs:  n.Cfg.ReconfDelayNs,
	}); err != nil {
		return nil, err
	}
	conn, err := n.optical.Compile(&p.sched)
	if err != nil {
		return nil, err
	}
	p.conn, p.ix = conn, core.NewConnIndex(&p.sched)
	return p, nil
}

// compileRouting checks paths against the circuits ix indexes and
// compiles them into time-flow tables.
func (n *Net) compileRouting(ix *core.ConnIndex, paths []core.Path, lookup core.LookupMode, mp core.MultipathMode) (*controller.CompiledRouting, error) {
	return controller.CompileRouting(ix, paths, controller.CompileOptions{
		Lookup:       lookup,
		Multipath:    mp,
		ExternalPort: n.isExternalPort,
	})
}

// install swaps a compiled program in, all in one virtual instant: the
// fabric's connection table, the one schedule the fabric, switches and
// hosts read, each switch's circuit index (TA circuit signals go out
// here, in node order), then each switch's table. It cannot fail.
func (n *Net) install(p *program) {
	if p.ix != nil {
		n.optical.Install(n.sched, p.conn)
		n.sched.NumSlices, n.sched.Circuits = p.sched.NumSlices, p.sched.Circuits
		n.ix = p.ix
		for _, sw := range n.switches {
			sw.InstallConnIndex(p.ix)
		}
	}
	if p.routing != nil {
		for _, sw := range n.switches {
			tab := p.routing.Tables[sw.ID()]
			if tab == nil {
				tab = core.NewTable()
			}
			sw.InstallTable(tab)
		}
	}
}

// Add implements the add() API: install one time-flow table entry directly
// on a node (debugging and custom experiments).
func (n *Net) Add(e core.Entry, node core.NodeID) error {
	if int(node) < 0 || int(node) >= len(n.switches) {
		return fmt.Errorf("openoptics: no node N%d", node)
	}
	return n.switches[node].Table().Add(e)
}

// ElectricalPaths returns one-hop paths through the electrical fabric for
// every node pair — the default routes of Clos baselines and hybrid
// architectures.
func (n *Net) ElectricalPaths() ([]core.Path, error) {
	if n.elec == nil {
		return nil, fmt.Errorf("openoptics: no electrical fabric configured (set electrical_gbps)")
	}
	var out []core.Path
	for s := 0; s < n.Cfg.NodeNum; s++ {
		for d := 0; d < n.Cfg.NodeNum; d++ {
			if s == d {
				continue
			}
			out = append(out, core.Path{
				Src: core.NodeID(s), Dst: core.NodeID(d),
				TS: core.WildcardSlice, Weight: 1,
				Hops: []core.Hop{{Node: core.NodeID(s), Egress: n.elecPort(), DepSlice: core.WildcardSlice}},
			})
		}
	}
	return out, nil
}

// Start arms all devices. Run calls it implicitly; it exists for tests
// that drive the engine directly.
func (n *Net) Start() {
	if n.started {
		return
	}
	n.started = true
	for _, sw := range n.switches {
		sw.Start()
	}
	for _, h := range n.hosts {
		h.Start()
	}
}

// Run advances the network by d of virtual time.
func (n *Net) Run(d time.Duration) {
	n.Start()
	n.eng.RunFor(d)
}

// Collect implements collect() (Table 1): run the network for the
// collection interval, then return the global traffic matrix aggregated
// from all switches (sent bytes plus host-reported pending bytes). The
// matrix is *windowed* — it covers only the interval since the previous
// Collect (delta semantics), so periodic collectors see per-window demand
// directly; two consecutive windows sum to the CollectTotal delta over the
// same span.
func (n *Net) Collect(interval time.Duration) core.TM {
	n.Run(interval)
	tm := core.NewTM(n.Cfg.NodeNum)
	for _, sw := range n.switches {
		sw.CollectTM(tm[sw.ID()]) // a switch only counts its own row
	}
	return tm
}

// CollectTotal returns the cumulative traffic matrix since time zero:
// every window Collect has returned plus the still-open one. Unlike
// Collect it advances no time and resets nothing.
func (n *Net) CollectTotal() core.TM {
	tm := core.NewTM(n.Cfg.NodeNum)
	for _, sw := range n.switches {
		sw.CumulativeTM(tm[sw.ID()])
	}
	return tm
}

// BufferUsage implements buffer_usage(): current buffered bytes on the
// port (NoPort = whole switch).
func (n *Net) BufferUsage(node core.NodeID, port core.PortID) int64 {
	if int(node) < 0 || int(node) >= len(n.switches) {
		return 0
	}
	return n.switches[node].BufferUsage(port)
}

// BWUsage implements bw_usage(): bytes transmitted on the port so far.
func (n *Net) BWUsage(node core.NodeID, port core.PortID) uint64 {
	if int(node) < 0 || int(node) >= len(n.switches) {
		return 0
	}
	return n.switches[node].BWUsage(port)
}

// Telemetry is one periodic monitoring snapshot (the interval-based forms
// of buffer_usage and bw_usage in Table 1).
type Telemetry struct {
	// Time is the virtual timestamp of the snapshot.
	Time int64
	// BufferBytes is each node's total buffered bytes.
	BufferBytes []int64
	// TxBytes is each node's cumulative transmitted bytes over all ports.
	TxBytes []uint64
}

// Monitor invokes fn with a telemetry snapshot every interval of virtual
// time (<=0 defaults to 1ms), until fn returns false. Arm before Run; it
// is an engine watch, so it schedules no event.
func (n *Net) Monitor(interval time.Duration, fn func(Telemetry) bool) {
	n.watch(interval, func() bool {
		t := Telemetry{Time: n.eng.Now()}
		for _, sw := range n.switches {
			t.BufferBytes = append(t.BufferBytes, sw.BufferUsage(core.NoPort))
			var tx uint64
			for p := core.PortID(0); int(p) < n.Cfg.Uplink; p++ {
				tx += sw.BWUsage(p)
			}
			if n.elec != nil {
				// The electrical uplink transmits too; bw_usage covers
				// every port that leaves the switch.
				tx += sw.BWUsage(n.elecPort())
			}
			t.TxBytes = append(t.TxBytes, tx)
		}
		return fn(t)
	})
}

// Counters sums the switch counters across the network. The sum is
// reflection-based (Counters.Add), so new counter fields aggregate
// automatically.
func (n *Net) Counters() switchsim.Counters {
	var t switchsim.Counters
	for _, sw := range n.switches {
		t.Add(&sw.Counters)
	}
	return t
}
