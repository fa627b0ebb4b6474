package routing

import (
	"testing"

	"openoptics/internal/core"
	"openoptics/internal/topo"
)

func roundRobinIndex(b *testing.B, nodes, uplink int) *core.ConnIndex {
	b.Helper()
	circuits, numSlices, err := topo.RoundRobin(nodes, uplink)
	if err != nil {
		b.Fatal(err)
	}
	return core.NewConnIndex(&core.Schedule{NumSlices: numSlices, Circuits: circuits})
}

var benchPaths []core.Path

func benchRouting(b *testing.B, ix *core.ConnIndex, alg func(*core.ConnIndex, Options) []core.Path) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPaths = alg(ix, Options{})
	}
}

// BenchmarkHOHO compiles the 12-node round robin the demand-aware
// controller compiles. `make bench-smoke` holds it under 30k allocs/op:
// one search per (src, dst, ts) instead of per (src, ts) makes ~460k, and
// fresh buffers for every search ~42k.
func BenchmarkHOHO(b *testing.B) { benchRouting(b, roundRobinIndex(b, 12, 1), HOHO) }

func BenchmarkUCMP(b *testing.B) { benchRouting(b, roundRobinIndex(b, 16, 2), UCMP) }

func BenchmarkVLB(b *testing.B) { benchRouting(b, roundRobinIndex(b, 16, 1), VLB) }
