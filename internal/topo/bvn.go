package topo

import (
	"fmt"
	"sort"

	"openoptics/internal/core"
)

// BvNTerm is one term of a Birkhoff–von-Neumann decomposition: a
// permutation (directed circuit assignment) and the fraction of time it
// should be held.
type BvNTerm struct {
	Perm   []int
	Weight float64
}

// BvNDecompose decomposes the traffic matrix into at most maxTerms
// permutation matrices with weights (Birkhoff–von-Neumann), the circuit
// scheduling used by Mordia: the matrix is normalized into a doubly
// stochastic one, then permutations on the positive support are peeled off,
// each weighted by the minimum entry it covers. Terms come back sorted by
// weight, descending. The weights sum to <= 1; the residual not covered by
// maxTerms terms is dropped (Mordia's "k biggest matchings" behaviour).
func BvNDecompose(tm core.TM, maxTerms int) ([]BvNTerm, error) {
	if maxTerms < 1 {
		return nil, fmt.Errorf("topo: bvn needs maxTerms >= 1, got %d", maxTerms)
	}
	d, err := tm.Doublify()
	if err != nil {
		return nil, err
	}
	n := d.N()
	var terms []BvNTerm
	const eps = 1e-9
	for len(terms) < maxTerms {
		// Find a perfect matching on the positive support. Per Birkhoff's
		// theorem one exists while the residual is a positive multiple of
		// a doubly stochastic matrix.
		perm, ok := supportMatching(d, eps)
		if !ok {
			break
		}
		w := 2.0
		for i, j := range perm {
			if d[i][j] < w {
				w = d[i][j]
			}
		}
		if w <= eps {
			break
		}
		for i, j := range perm {
			d[i][j] -= w
		}
		terms = append(terms, BvNTerm{Perm: perm, Weight: w})
		_ = n
	}
	sort.SliceStable(terms, func(i, j int) bool { return terms[i].Weight > terms[j].Weight })
	return terms, nil
}

// supportMatching finds a perfect matching on entries > eps via
// Hopcroft–Karp style augmenting paths (Kuhn's algorithm, sufficient at
// these sizes).
func supportMatching(d core.TM, eps float64) ([]int, bool) {
	n := d.N()
	matchCol := make([]int, n) // column -> row
	for i := range matchCol {
		matchCol[i] = -1
	}
	var try func(i int, seen []bool) bool
	try = func(i int, seen []bool) bool {
		for j := 0; j < n; j++ {
			if d[i][j] > eps && !seen[j] {
				seen[j] = true
				if matchCol[j] < 0 || try(matchCol[j], seen) {
					matchCol[j] = i
					return true
				}
			}
		}
		return false
	}
	for i := 0; i < n; i++ {
		seen := make([]bool, n)
		if !try(i, seen) {
			return nil, false
		}
	}
	perm := make([]int, n)
	for j, i := range matchCol {
		perm[i] = j
	}
	return perm, true
}

// BvN materializes topo() for Mordia-style TA scheduling: the top BvN terms
// are laid out as an optical schedule whose slice counts are proportional
// to the term weights (numSlices slices total), so heavier matchings hold
// their circuits longer. Each term's permutation is rendered as duplex
// circuits via alternation (see permToPairs).
func BvN(tm core.TM, maxTerms, numSlices int) ([]core.Circuit, int, error) {
	if numSlices < 1 {
		return nil, 0, fmt.Errorf("topo: bvn needs numSlices >= 1, got %d", numSlices)
	}
	terms, err := BvNDecompose(tm, maxTerms)
	if err != nil {
		return nil, 0, err
	}
	if len(terms) == 0 {
		return nil, 0, fmt.Errorf("topo: bvn produced no terms")
	}
	// Quantize weights into slice counts: proportional allocation with a
	// floor of one slice per term, trimming from the largest counts (or
	// dropping the lightest terms) when the floor overcommits, and
	// padding the heaviest term when slices remain.
	if len(terms) > numSlices {
		terms = terms[:numSlices]
	}
	var wsum float64
	for _, t := range terms {
		wsum += t.Weight
	}
	counts := make([]int, len(terms))
	total := 0
	for i, t := range terms {
		c := int(t.Weight / wsum * float64(numSlices))
		if c < 1 {
			c = 1
		}
		counts[i] = c
		total += c
	}
	for total > numSlices {
		mi := 0
		for i, c := range counts {
			if c > counts[mi] {
				mi = i
			}
		}
		if counts[mi] <= 1 {
			last := len(terms) - 1
			total -= counts[last]
			terms = terms[:last]
			counts = counts[:last]
			continue
		}
		counts[mi]--
		total--
	}
	for total < numSlices {
		counts[0]++
		total++
	}
	w := tm.Symmetric(tm.N())
	var circuits []core.Circuit
	ts := 0
	for i, t := range terms {
		pairs := permToPairs(t.Perm, w)
		for c := 0; c < counts[i]; c++ {
			for _, pr := range pairs {
				circuits = append(circuits, core.Circuit{
					A: pr[0], PortA: 0,
					B: pr[1], PortB: 0,
					Slice: core.Slice(ts),
				})
			}
			ts++
		}
	}
	return circuits, numSlices, nil
}
