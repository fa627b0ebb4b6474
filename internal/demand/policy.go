package demand

import (
	"fmt"
	"sort"

	"openoptics/internal/core"
	"openoptics/internal/topo"
)

// Env is the synthesis context a policy sees: the fabric's shape and the
// payload one circuit carries over the epoch being scheduled.
type Env struct {
	Nodes     int
	Uplink    int
	NumSlices int
	// SliceCapBytes is the bytes one circuit serves during the epoch in
	// one slice position: per-slice payload × cycles per epoch.
	SliceCapBytes float64
}

// Input is what a policy synthesizes from: the predictor's estimate of the
// epoch's demand and the realized bytes of the epoch just ended. Policies
// pick their signal — matching policies use Predicted, the request-grant
// policy accumulates Realized as outstanding requests and ignores the
// predictor entirely.
type Input struct {
	Predicted core.TM
	Realized  core.TM
}

// Policy synthesizes one epoch's circuit schedule. Implementations may
// keep state across epochs (request carryover), but must be deterministic:
// the same call sequence yields the same circuits.
type Policy interface {
	Name() string
	Synthesize(in Input, env Env) ([]core.Circuit, error)
}

// Oblivious is the demand-oblivious baseline: the round-robin schedule,
// every epoch, regardless of traffic. The controller skips no-op
// reprograms, so this policy never pays reconfiguration cost — exactly the
// rotor-style TO operating point.
type Oblivious struct{}

// Name implements Policy.
func (Oblivious) Name() string { return "oblivious" }

// Synthesize implements Policy.
func (Oblivious) Synthesize(_ Input, env Env) ([]core.Circuit, error) {
	circuits, _, err := topo.RoundRobin(env.Nodes, env.Uplink)
	return circuits, err
}

// Aware is the demand-aware greedy matching policy: each slice's circuits
// are a maximal-weight matching over the residual predicted demand, with a
// small round-robin bias so zero-demand capacity falls back to the
// oblivious pattern (keeping the schedule connected for multi-hop
// routing). Hot pairs earn direct circuits in many slices; cold pairs keep
// their round-robin turn.
type Aware struct{}

// Name implements Policy.
func (Aware) Name() string { return "aware" }

// Synthesize implements Policy.
func (Aware) Synthesize(in Input, env Env) ([]core.Circuit, error) {
	resid := in.Predicted.Symmetric(env.Nodes)
	return grantSchedule(resid, env)
}

// ReqGrant is the NegotiaToR-style request-grant policy: every epoch, the
// realized window's bytes are added to a persistent per-pair outstanding-
// request ledger; slices are then granted greedily from the ledger, each
// grant consuming one slice worth of capacity. Ungranted requests carry
// over to the next epoch, so backlogged pairs accumulate priority — the
// on-demand allocation discipline, with no predictor in the loop.
type ReqGrant struct {
	outstanding core.TM
}

// Name implements Policy.
func (*ReqGrant) Name() string { return "reqgrant" }

// Synthesize implements Policy.
func (p *ReqGrant) Synthesize(in Input, env Env) ([]core.Circuit, error) {
	if p.outstanding == nil {
		p.outstanding = core.NewTM(env.Nodes)
	}
	req := in.Realized.Symmetric(env.Nodes)
	for i := range p.outstanding {
		for j := range p.outstanding[i] {
			p.outstanding[i][j] += req[i][j]
		}
	}
	return grantSchedule(p.outstanding, env)
}

// grantSchedule is the shared synthesis core of Aware and ReqGrant: for
// each slice and uplink round, run a greedy maximal-weight matching over
// the residual symmetric demand (plus a round-robin epsilon bias), grant
// the matched pairs a circuit, and decrement their residual by the slice
// capacity. The residual matrix is mutated in place — Aware passes a copy,
// ReqGrant its persistent ledger.
func grantSchedule(resid core.TM, env Env) ([]core.Circuit, error) {
	rr, numSlices, err := topo.RoundRobin(env.Nodes, env.Uplink)
	if err != nil {
		return nil, err
	}
	if numSlices != env.NumSlices {
		return nil, fmt.Errorf("demand: cycle length %d does not match deployed %d", numSlices, env.NumSlices)
	}
	// eps biases matchings toward the round-robin edge of each (slice,
	// uplink) round: large enough to win ties on idle pairs, small enough
	// never to displace real demand.
	eps := 1.0
	var maxW float64
	for i := range resid {
		for j := range resid[i] {
			if resid[i][j] > maxW {
				maxW = resid[i][j]
			}
		}
	}
	if maxW > 0 {
		eps = maxW * 1e-9
	}
	rrEdge := rrEdges(rr, env.NumSlices, env.Uplink)
	cap := env.SliceCapBytes
	var circuits []core.Circuit
	for ts := 0; ts < env.NumSlices; ts++ {
		for u := 0; u < env.Uplink; u++ {
			w := make([][]float64, env.Nodes)
			for i := range w {
				w[i] = make([]float64, env.Nodes)
				copy(w[i], resid[i])
			}
			for _, pr := range rrEdge[ts][u] {
				w[pr[0]][pr[1]] += eps
				w[pr[1]][pr[0]] += eps
			}
			pairs, _ := MaxWeightMatchingGreedy(w)
			sort.Slice(pairs, func(a, b int) bool {
				if pairs[a][0] != pairs[b][0] {
					return pairs[a][0] < pairs[b][0]
				}
				return pairs[a][1] < pairs[b][1]
			})
			for _, pr := range pairs {
				i, j := pr[0], pr[1]
				circuits = append(circuits, core.Circuit{
					A: core.NodeID(i), PortA: core.PortID(u),
					B: core.NodeID(j), PortB: core.PortID(u),
					Slice: core.Slice(ts),
				})
				resid[i][j] -= cap
				if resid[i][j] < 0 {
					resid[i][j] = 0
				}
				resid[j][i] -= cap
				if resid[j][i] < 0 {
					resid[j][i] = 0
				}
			}
		}
	}
	return circuits, nil
}

// rrEdges indexes the round-robin schedule by (slice, uplink port):
// the bias edges grantSchedule applies.
func rrEdges(rr []core.Circuit, numSlices, uplink int) [][][][2]int {
	out := make([][][][2]int, numSlices)
	for i := range out {
		out[i] = make([][][2]int, uplink)
	}
	for _, c := range rr {
		ts, u := int(c.Slice), int(c.PortA)
		if ts < 0 || ts >= numSlices || u < 0 || u >= uplink {
			continue
		}
		out[ts][u] = append(out[ts][u], [2]int{int(c.A), int(c.B)})
	}
	return out
}

// policies is the registry behind NewPolicy / KnownPolicy. Constructors
// return fresh instances because policies may be stateful.
var policies = map[string]func() Policy{
	"oblivious": func() Policy { return Oblivious{} },
	"aware":     func() Policy { return Aware{} },
	"reqgrant":  func() Policy { return &ReqGrant{} },
}

// NewPolicy resolves a policy by name: oblivious, aware, reqgrant.
func NewPolicy(name string) (Policy, error) {
	if mk, ok := policies[name]; ok {
		return mk(), nil
	}
	return nil, fmt.Errorf("demand: unknown policy %q (known: %v)", name, KnownPolicies())
}

// KnownPolicy reports whether name resolves.
func KnownPolicy(name string) bool { _, ok := policies[name]; return ok }

// KnownPolicies lists the policy names, sorted.
func KnownPolicies() []string {
	out := make([]string, 0, len(policies))
	for k := range policies {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
