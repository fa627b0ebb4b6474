package openoptics

import (
	"testing"
	"time"

	"openoptics/internal/traffic"
)

// fuzzInput hands out a fuzz input's bytes one at a time, then zeros.
type fuzzInput []byte

func (b *fuzzInput) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzDeploy decodes its bytes into a 2–8-node net with 1–3 uplinks, the
// electrical fabric on or off, running a round robin under VLB with a UDP
// probe, and into a program: circuits and paths drawn from an alphabet that
// includes out-of-range nodes, ports and slices, optionally on top of the
// round robin rotated and its VLB routing. It deploys the program with
// DeployTopo, DeployRouting and Reprogram (with a drain window) in turn.
// No call may panic, and every rejected call must leave the schedule, the
// fabric's circuits, each switch's table and the reconfiguration count as
// they were. The cycle length stays the round robin's: it is fixed once a
// net runs, and a huge one is a memory request, not malformed input.
func FuzzDeploy(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzInput(data)
		nodes := 2 + in.next()%7
		uplink := 1 + in.next()%3
		cfg := Config{NodeNum: nodes, Uplink: uplink, SliceDurationNs: 100_000, Seed: 1}
		if in.next()%2 == 1 {
			cfg.ElectricalGbps = 10
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rr, numSlices, err := RoundRobin(nodes, uplink)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.DeployTopo(rr, numSlices); err != nil {
			t.Fatal(err)
		}
		if err := n.DeployRouting(n.VLB(rr, numSlices, RoutingOptions{}), LookupHop, MultipathPacket); err != nil {
			t.Fatal(err)
		}
		eps := n.Endpoints()
		traffic.NewSink(eps)
		traffic.NewUDPProbe(n.Engine(), eps[0], eps[nodes-1]).Start(int64(time.Millisecond))
		n.Run(200 * time.Microsecond)

		// The alphabet: NoNode to one node past the last; NoPort to one
		// port past the electrical one; the wildcard to two slices past
		// the cycle.
		node := func() NodeID { return NodeID(in.next()%(nodes+2) - 1) }
		port := func() PortID { return PortID(in.next()%(uplink+3) - 1) }
		slice := func() Slice { return Slice(in.next()%(numSlices+3) - 1) }
		mode := in.next()
		var circuits []Circuit
		if mode&1 != 0 {
			circuits = rr
			for range in.next() % numSlices {
				circuits = rotateSlices(circuits, numSlices)
			}
		}
		extra := in.next() % 8
		for range extra {
			circuits = append(circuits, Circuit{A: node(), PortA: port(), B: node(), PortB: port(), Slice: slice()})
		}
		var paths []Path
		if mode&2 != 0 && mode&1 != 0 && extra == 0 {
			paths = n.VLB(circuits, numSlices, RoutingOptions{})
		}
		for range in.next() % 8 {
			p := Path{Src: node(), Dst: node(), TS: slice(), Weight: 1}
			for range 1 + in.next()%3 {
				p.Hops = append(p.Hops, Hop{Node: node(), Egress: port(), DepSlice: slice()})
			}
			paths = append(paths, p)
		}
		lookup := LookupMode(in.next() % 2)
		mp := MultipathMode(in.next() % 3)

		calls := []struct {
			name string
			call func() error
		}{
			{"DeployTopo", func() error { return n.DeployTopo(circuits, numSlices) }},
			{"DeployRouting", func() error { return n.DeployRouting(paths, lookup, mp) }},
			{"Reprogram", func() error {
				return n.Reprogram(ReprogramPlan{Circuits: circuits, Paths: paths, Lookup: lookup, Multipath: mp},
					ReconfigCost{DrainNs: 5_000})
			}},
		}
		for _, c := range calls {
			before := deployedOf(n)
			if err := c.call(); err != nil {
				if moved := before.moved(deployedOf(n)); moved != "" {
					t.Fatalf("rejected %s (%v) changed %s", c.name, err, moved)
				}
			}
			n.Run(100 * time.Microsecond)
		}
	})
}
