package openoptics

import (
	"testing"
	"time"

	"openoptics/internal/sim"
	"openoptics/internal/traffic"
)

// TestPerHopEventCounts pins the per-hop event model from the always-on
// per-class counts: a link schedules the ingress stage of a switch or of
// the electrical fabric itself, so link.deliver events are exactly the
// arrivals at hosts and at the optical fabric; the optical fabric reserves
// its output wire on arrival and schedules nothing; and every ingress
// stage counts one switch reception.
func TestPerHopEventCounts(t *testing.T) {
	build := map[string]func() (*Net, error){
		"rotornet-vlb": func() (*Net, error) {
			n, _, err := buildRandomRotor(2, 1, 11, 0) // 6 nodes, 2 uplinks
			return n, err
		},
		"clos": func() (*Net, error) {
			n, err := New(Config{NodeNum: 4, Uplink: 1, SliceDurationNs: 100_000,
				ElectricalGbps: 100, Seed: 11})
			if err != nil {
				return nil, err
			}
			paths, err := n.ElectricalPaths()
			if err != nil {
				return nil, err
			}
			return n, n.DeployRouting(paths, LookupHop, MultipathNone)
		},
	}
	for name, mk := range build {
		t.Run(name, func(t *testing.T) {
			n, err := mk()
			if err != nil {
				t.Fatal(err)
			}
			eps := n.Endpoints()
			traffic.NewSink(eps)
			traffic.NewMemcached(n.Engine(), eps[0], eps[1:], 11).Start(int64(3 * time.Millisecond))
			n.Run(4 * time.Millisecond)

			var count [sim.NumClasses]uint64
			for _, cs := range n.Engine().ProfileStats() {
				count[cs.Class] = cs.Count
			}
			var hostRx, switchRx uint64
			for _, h := range n.Hosts() {
				hostRx += h.Counters.RxPkts
			}
			for _, sw := range n.Switches() {
				switchRx += sw.Counters.RxPkts
			}
			fab := n.OpticalFabric()
			opticalRx := fab.Forwarded + fab.DropsGuard + fab.DropsNoCircuit + fab.DropsReconfig
			if hostRx == 0 || switchRx == 0 {
				t.Fatalf("no traffic: host rx %d, switch rx %d", hostRx, switchRx)
			}
			if name == "rotornet-vlb" && fab.Forwarded == 0 {
				t.Fatal("no packet crossed the optical fabric")
			}
			if got, want := count[sim.ClassLinkDeliver], hostRx+opticalRx; got != want {
				t.Errorf("link.deliver events = %d, want host rx %d + optical-fabric rx %d", got, hostRx, opticalRx)
			}
			if got := count[sim.ClassFabricOptical]; got != 0 {
				t.Errorf("fabric.optical events = %d, want 0", got)
			}
			if got := count[sim.ClassSwitchIngress]; got != switchRx {
				t.Errorf("switch.ingress events = %d, want switch rx %d", got, switchRx)
			}
			if c := n.Engine().SchedPressure().Clamps; c != 0 {
				t.Errorf("%d events scheduled in the past, want 0", c)
			}
		})
	}
}
