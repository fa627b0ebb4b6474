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

// BenchmarkOpera compiles Opera on a 16-node 2-uplink round robin, whose
// slices are not all connected, so it reads the hop trees and falls back
// to the earliest-path search. `make bench-smoke` holds it under 16k
// allocs/op: ~14.4k with one hop tree per (source, slice), ~54.7k with a
// map-backed search per (source, destination, slice).
func BenchmarkOpera(b *testing.B) { benchRouting(b, roundRobinIndex(b, 16, 2), Opera) }

// BenchmarkWCMP compiles WCMP on Jupiter's 16-node 3-uplink uniform mesh,
// the compile Jupiter runs at start. `make bench-smoke` holds it under
// 3.5k allocs/op: ~3.1k with one hop tree per source, ~6.3k with a
// map-backed search per (source, destination).
func BenchmarkWCMP(b *testing.B) {
	circuits, err := topo.UniformMesh(16, 3)
	if err != nil {
		b.Fatal(err)
	}
	benchRouting(b, core.NewConnIndex(&core.Schedule{NumSlices: 1, Circuits: circuits}), WCMP)
}
