package demand

import (
	"fmt"
	"time"

	"openoptics"
	"openoptics/internal/core"
	"openoptics/internal/routing"
	"openoptics/internal/telemetry"
	"openoptics/internal/topo"
)

// Config shapes a Controller.
type Config struct {
	// CollectEvery is the TM collection period — the control loop's tick.
	CollectEvery time.Duration
	// ReprogramEvery is the scheduling epoch: how often a new schedule is
	// synthesized and hot-swapped. It is rounded up to a whole number of
	// collection ticks; 0 means every tick.
	ReprogramEvery time.Duration
	// History is the TM windows the stream retains (default 16).
	History int
	// Predictor estimates the next window's demand (default LastValue).
	Predictor Predictor
	// Policy synthesizes each epoch's schedule (default Aware).
	Policy Policy
	// DrainNs is the hot-swap reconfiguration cost (see
	// openoptics.ReconfigCost).
	DrainNs int64
	// Routing tunes the HOHO compilation of synthesized schedules.
	Routing routing.Options
}

// Stats summarizes a controller's run for result harvesting.
type Stats struct {
	// Epochs is the number of schedules synthesized (including no-op
	// epochs that were skipped without a hot-swap).
	Epochs uint64
	// PredErrRatio is Σ|predicted−actual| / Σ actual over all windows a
	// prediction existed for (0 with no history).
	PredErrRatio float64
	// Coverage is the latest epoch's matching-weight coverage: the
	// fraction of realized demand bytes the installed schedule can carry
	// on direct circuits, capped by slice capacity (1 with no demand).
	Coverage float64
}

// Controller runs the collect → predict → reprogram loop over one Net.
// Tick is the loop body, designed to be wired as an arch.Instance
// Reconfigure callback so it runs on the simulation goroutine at exact
// virtual-time boundaries — everything it does is a deterministic function
// of simulation state.
type Controller struct {
	net *openoptics.Net
	cfg Config

	stream        *Stream
	ticks         int
	perEpoch      int   // collection ticks per scheduling epoch
	lastCollectNs int64 // previous tick's virtual time
	pred          core.TM
	epochAccum    core.TM // realized windows summed since the last epoch

	epochs          uint64
	predErrBytes    float64
	predActualBytes float64
	coverage        float64
}

// NewController builds the control loop for net and registers its metrics
// (oo_demand_epochs_total, oo_predictor_abs_error_bytes_total,
// oo_predictor_error_ratio, oo_matching_weight_coverage) on the network's
// registry.
func NewController(net *openoptics.Net, cfg Config) (*Controller, error) {
	if cfg.CollectEvery <= 0 {
		return nil, fmt.Errorf("demand: collect interval must be positive, got %v", cfg.CollectEvery)
	}
	if cfg.Predictor == nil {
		cfg.Predictor = LastValue{}
	}
	if cfg.Policy == nil {
		cfg.Policy = Aware{}
	}
	if cfg.History <= 0 {
		cfg.History = 16
	}
	perEpoch := 1
	if cfg.ReprogramEvery > cfg.CollectEvery {
		perEpoch = int((cfg.ReprogramEvery + cfg.CollectEvery - 1) / cfg.CollectEvery)
	}
	c := &Controller{
		net:        net,
		cfg:        cfg,
		stream:     NewStream(cfg.History),
		perEpoch:   perEpoch,
		epochAccum: core.NewTM(net.Cfg.NodeNum),
		coverage:   1,
	}
	net.OnMetrics(c.register)
	return c, nil
}

func (c *Controller) register(reg *telemetry.Registry) {
	reg.CounterFunc("oo_demand_epochs_total",
		"Scheduling epochs synthesized by the demand-aware control loop.",
		func() float64 { return float64(c.epochs) })
	reg.CounterFunc("oo_predictor_abs_error_bytes_total",
		"Cumulative |predicted - actual| TM bytes across collection windows.",
		func() float64 { return c.predErrBytes })
	reg.GaugeFunc("oo_predictor_error_ratio",
		"Predictor L1 error over actual bytes, cumulative.",
		func() float64 { return c.errRatio() })
	reg.GaugeFunc("oo_matching_weight_coverage",
		"Fraction of last epoch's demand bytes carriable on direct circuits.",
		func() float64 { return c.coverage })
}

func (c *Controller) errRatio() float64 {
	if c.predActualBytes <= 0 {
		return 0
	}
	return c.predErrBytes / c.predActualBytes
}

// Stats snapshots the controller's run summary.
func (c *Controller) Stats() Stats {
	return Stats{Epochs: c.epochs, PredErrRatio: c.errRatio(), Coverage: c.coverage}
}

// Tick runs one control-loop iteration: collect the window that just
// ended, score and refresh the prediction, and — at epoch boundaries —
// synthesize the next schedule and hot-swap it. It must run on the
// simulation goroutine (arch.Instance.Reconfigure).
func (c *Controller) Tick() error {
	now := c.net.Engine().Now()
	w := c.net.Collect(0)
	if c.pred != nil {
		for i := range w {
			for j := range w[i] {
				d := c.pred[i][j] - w[i][j]
				if d < 0 {
					d = -d
				}
				c.predErrBytes += d
				c.predActualBytes += w[i][j]
			}
		}
	}
	c.stream.Push(Window{StartNs: c.lastCollectNs, EndNs: now, TM: w})
	c.lastCollectNs = now
	c.pred = c.cfg.Predictor.Predict(c.stream)
	for i := range w {
		for j := range w[i] {
			c.epochAccum[i][j] += w[i][j]
		}
	}
	c.ticks++
	if c.ticks%c.perEpoch != 0 {
		return nil
	}
	realized := c.epochAccum
	c.epochAccum = core.NewTM(c.net.Cfg.NodeNum)
	return c.reprogram(realized)
}

// reprogram synthesizes and installs one epoch's schedule from the
// realized epoch window and the current prediction.
func (c *Controller) reprogram(realized core.TM) error {
	env := c.env()
	in := Input{Realized: realized}
	if c.pred != nil {
		// The prediction is per collection window; the policy schedules a
		// whole epoch of perEpoch windows.
		in.Predicted = c.pred.Clone()
		for i := range in.Predicted {
			for j := range in.Predicted[i] {
				in.Predicted[i][j] *= float64(c.perEpoch)
			}
		}
	}
	circuits, err := c.cfg.Policy.Synthesize(in, env)
	if err != nil {
		return fmt.Errorf("demand: policy %s: %w", c.cfg.Policy.Name(), err)
	}
	c.epochs++
	if len(core.DiffCircuits(circuits, c.net.Schedule().Circuits)) == 0 {
		// No-op epoch: the policy kept the installed schedule (the
		// oblivious baseline always lands here), so skip the hot-swap and
		// pay no reconfiguration cost.
		c.coverage = coverage(realized, c.net.Schedule().Circuits, env)
		return nil
	}
	circuits, paths, err := c.compile(circuits, env)
	if err != nil {
		return err
	}
	c.coverage = coverage(realized, circuits, env)
	return c.net.Reprogram(openoptics.ReprogramPlan{
		Circuits:  circuits,
		NumSlices: env.NumSlices,
		Paths:     paths,
		Lookup:    core.LookupSource,
		Multipath: core.MultipathNone,
	}, openoptics.ReconfigCost{DrainNs: c.cfg.DrainNs})
}

// env derives the synthesis context from the deployed network.
func (c *Controller) env() Env {
	cfg := c.net.Cfg
	numSlices := c.net.Schedule().NumSlices
	payload := cfg.LineRateGbps * 1e9 / 8 * float64(cfg.SliceDurationNs) / 1e9
	epochNs := int64(c.cfg.CollectEvery) * int64(c.perEpoch)
	cycleNs := int64(numSlices) * cfg.SliceDurationNs
	cycles := int64(1)
	if cycleNs > 0 && epochNs/cycleNs > 1 {
		cycles = epochNs / cycleNs
	}
	return Env{
		Nodes:         cfg.NodeNum,
		Uplink:        cfg.Uplink,
		NumSlices:     numSlices,
		SliceCapBytes: payload * float64(cycles),
	}
}

// compile turns a synthesized circuit set into a complete HOHO routing,
// repairing path coverage when demand-concentrated schedules strand node
// pairs: slices are progressively replaced by their round-robin matching —
// least realized demand first — until every (src, dst, slice) tuple has a
// path. The loop terminates because the all-replaced schedule is pure
// round-robin, which HOHO always covers.
func (c *Controller) compile(circuits []core.Circuit, env Env) ([]core.Circuit, []core.Path, error) {
	paths := c.net.HOHO(circuits, env.NumSlices, c.cfg.Routing)
	if pathsComplete(paths, env.Nodes, env.NumSlices) {
		return circuits, paths, nil
	}
	rr, _, err := topo.RoundRobin(env.Nodes, env.Uplink)
	if err != nil {
		return nil, nil, fmt.Errorf("demand: repair: %w", err)
	}
	order := slicesByWeight(circuits, c.epochWeights(), env.NumSlices)
	replaced := make(map[core.Slice]bool, env.NumSlices)
	for _, ts := range order {
		replaced[ts] = true
		cand := make([]core.Circuit, 0, len(circuits)+len(rr))
		for _, cc := range circuits {
			if !replaced[cc.Slice] {
				cand = append(cand, cc)
			}
		}
		for _, cc := range rr {
			if replaced[cc.Slice] {
				cand = append(cand, cc)
			}
		}
		paths = c.net.HOHO(cand, env.NumSlices, c.cfg.Routing)
		if pathsComplete(paths, env.Nodes, env.NumSlices) {
			return cand, paths, nil
		}
	}
	return nil, nil, fmt.Errorf("demand: repair: no complete routing even at pure round-robin")
}

// epochWeights is the symmetric demand the repair loop scores slices by:
// the last prediction when available, else uniform.
func (c *Controller) epochWeights() core.TM {
	return c.pred.Symmetric(c.net.Cfg.NodeNum)
}

// slicesByWeight orders slice indices by ascending carried demand weight
// (ties by index), so repair sacrifices the least valuable slices first.
func slicesByWeight(circuits []core.Circuit, dem core.TM, numSlices int) []core.Slice {
	w := make([]float64, numSlices)
	for _, cc := range circuits {
		if ts := int(cc.Slice); ts >= 0 && ts < numSlices {
			w[ts] += dem[cc.A][cc.B]
		}
	}
	out := make([]core.Slice, numSlices)
	for i := range out {
		out[i] = core.Slice(i)
	}
	for i := 1; i < len(out); i++ { // insertion sort: numSlices is small
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if w[a] < w[b] || (w[a] == w[b] && a < b) {
				break
			}
			out[j-1], out[j] = b, a
		}
	}
	return out
}

// pathsComplete reports whether every (src, dst, slice) tuple has a path.
func pathsComplete(paths []core.Path, nodes, numSlices int) bool {
	return len(paths) >= nodes*(nodes-1)*numSlices
}

// coverage is the matching-weight coverage metric: the fraction of the
// realized demand each node pair could carry on the schedule's direct
// circuits, capped at slice capacity per circuit-slice. Policy-independent,
// so oblivious/aware/reqgrant compare on the same scale.
func coverage(realized core.TM, circuits []core.Circuit, env Env) float64 {
	n := env.Nodes
	dem := realized.Symmetric(n)
	slots := make(map[[2]int]float64, len(circuits))
	for _, cc := range circuits {
		i, j := int(cc.A), int(cc.B)
		if i > j {
			i, j = j, i
		}
		slots[[2]int{i, j}] += env.SliceCapBytes
	}
	var want, got float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := dem[i][j]
			if d <= 0 {
				continue
			}
			want += d
			if cap := slots[[2]int{i, j}]; cap < d {
				got += cap
			} else {
				got += d
			}
		}
	}
	if want <= 0 {
		return 1
	}
	return got / want
}
