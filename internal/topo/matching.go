package topo

import (
	"fmt"
	"math"

	"openoptics/internal/core"
)

// MaxWeightAssignment solves the n×n assignment problem: it returns a
// permutation p maximizing Σ w[i][p[i]], via the O(n³) Hungarian algorithm
// with potentials. This is the workhorse behind the TA circuit schedulers
// (Edmonds/c-Through, BvN/Mordia, Jupiter, SORN).
//
// Circuit assignment on a single-sided OCS is a bipartite problem (sender
// ports × receiver ports), which is why the bipartite formulation stands in
// for the general-graph Edmonds matching named by c-Through (see DESIGN.md).
func MaxWeightAssignment(w [][]float64) ([]int, error) {
	n := len(w)
	if n == 0 {
		return nil, fmt.Errorf("topo: empty weight matrix")
	}
	for i := range w {
		if len(w[i]) != n {
			return nil, fmt.Errorf("topo: weight matrix not square (row %d has %d cols)", i, len(w[i]))
		}
	}
	const inf = math.MaxFloat64
	// Minimize cost = -w. 1-indexed classic formulation.
	u := make([]float64, n+1)
	v := make([]float64, n+1)
	p := make([]int, n+1)   // p[j]: row matched to column j
	way := make([]int, n+1) // way[j]: previous column on the alternating path
	for i := 1; i <= n; i++ {
		p[0] = i
		j0 := 0
		minv := make([]float64, n+1)
		used := make([]bool, n+1)
		for j := range minv {
			minv[j] = inf
		}
		for {
			used[j0] = true
			i0, j1 := p[j0], 0
			delta := inf
			for j := 1; j <= n; j++ {
				if used[j] {
					continue
				}
				cur := -w[i0-1][j-1] - u[i0] - v[j]
				if cur < minv[j] {
					minv[j] = cur
					way[j] = j0
				}
				if minv[j] < delta {
					delta = minv[j]
					j1 = j
				}
			}
			for j := 0; j <= n; j++ {
				if used[j] {
					u[p[j]] += delta
					v[j] -= delta
				} else {
					minv[j] -= delta
				}
			}
			j0 = j1
			if p[j0] == 0 {
				break
			}
		}
		for j0 != 0 {
			j1 := way[j0]
			p[j0] = p[j1]
			j0 = j1
		}
	}
	res := make([]int, n)
	for j := 1; j <= n; j++ {
		res[p[j]-1] = j - 1
	}
	return res, nil
}

// permToPairs converts a permutation (a directed circuit assignment) into
// an undirected matching of duplex circuits. Permutation cycles are walked
// and alternate edges are kept, choosing the heavier alternation per cycle;
// fixed points and the lightest edge of odd cycles are dropped. Each
// returned pair appears once with a < b.
func permToPairs(perm []int, w [][]float64) [][2]core.NodeID {
	n := len(perm)
	visited := make([]bool, n)
	var pairs [][2]core.NodeID
	for s := 0; s < n; s++ {
		if visited[s] || perm[s] == s {
			visited[s] = true
			continue
		}
		// Walk the cycle starting at s.
		var cyc []int
		for x := s; !visited[x]; x = perm[x] {
			visited[x] = true
			cyc = append(cyc, x)
		}
		L := len(cyc)
		if L == 2 {
			pairs = append(pairs, orient(cyc[0], cyc[1]))
			continue
		}
		take := func(start int) (float64, [][2]core.NodeID) {
			// Alternation of L/2 edges around an even cycle beginning at
			// offset start: (start,start+1), (start+2,start+3), ...
			var sum float64
			var ps [][2]core.NodeID
			for e := 0; e < L/2; e++ {
				k := start + 2*e
				a, b := cyc[k%L], cyc[(k+1)%L]
				sum += w[a][b] + w[b][a]
				ps = append(ps, orient(a, b))
			}
			return sum, ps
		}
		if L%2 == 0 {
			s0, p0 := take(0)
			s1, p1 := take(1)
			if s0 >= s1 {
				pairs = append(pairs, p0...)
			} else {
				pairs = append(pairs, p1...)
			}
		} else {
			// Odd cycle: L-1 nodes matchable. Try each dropped vertex’s
			// alternation cheaply: drop the edge-minimal position.
			best, bestPairs := math.Inf(-1), [][2]core.NodeID(nil)
			for drop := 0; drop < L; drop++ {
				var sum float64
				var ps [][2]core.NodeID
				for k := 1; k+1 < L; k += 2 {
					a, b := cyc[(drop+k)%L], cyc[(drop+k+1)%L]
					sum += w[a][b] + w[b][a]
					ps = append(ps, orient(a, b))
				}
				if sum > best {
					best, bestPairs = sum, ps
				}
			}
			pairs = append(pairs, bestPairs...)
		}
	}
	return pairs
}

func orient(a, b int) [2]core.NodeID {
	if a > b {
		a, b = b, a
	}
	return [2]core.NodeID{core.NodeID(a), core.NodeID(b)}
}

// Edmonds materializes topo() for c-Through-style TA scheduling: it runs
// `uplink` rounds of maximum-weight matching over the (residual) traffic
// matrix and returns one static topology instance (wildcard-slice circuits)
// in which node port u carries the u-th round's matching.
func Edmonds(tm core.TM, uplink int) ([]core.Circuit, error) {
	n := tm.N()
	if n < 2 {
		return nil, fmt.Errorf("topo: edmonds needs >= 2 nodes, got %d", n)
	}
	if uplink < 1 {
		return nil, fmt.Errorf("topo: edmonds needs >= 1 uplink, got %d", uplink)
	}
	res := tm.Clone()
	var circuits []core.Circuit
	for u := 0; u < uplink; u++ {
		s := res.Symmetric(n)
		for i := range s {
			s[i][i] = -1e18 // self-assignment only as a last resort
		}
		perm, err := MaxWeightAssignment(s)
		if err != nil {
			return nil, err
		}
		pairs := permToPairs(perm, s)
		for _, pr := range pairs {
			circuits = append(circuits, core.Circuit{
				A: pr[0], PortA: core.PortID(u),
				B: pr[1], PortB: core.PortID(u),
				Slice: core.WildcardSlice,
			})
			// Consider the pair served so later rounds pick other pairs.
			res[pr[0]][pr[1]] = 0
			res[pr[1]][pr[0]] = 0
		}
	}
	return circuits, nil
}
