package core

import (
	"fmt"
	"math"
)

// TM is a traffic matrix between endpoint nodes: TM[i][j] is the demand
// from node i to node j in arbitrary volume units (bytes over the
// collection interval, in this implementation). TA architectures feed a TM
// into topology algorithms (topo(TM) in Table 1); TO architectures pass a
// nil TM to signal traffic obliviousness.
type TM [][]float64

// NewTM returns an n×n zero traffic matrix.
func NewTM(n int) TM {
	m := make(TM, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	return m
}

// N returns the node count.
func (m TM) N() int { return len(m) }

// Add accumulates vol units of demand from src to dst. Out-of-range and
// self demands are ignored (self traffic never crosses the fabric).
func (m TM) Add(src, dst NodeID, vol float64) {
	if src == dst || int(src) < 0 || int(dst) < 0 || int(src) >= len(m) || int(dst) >= len(m) {
		return
	}
	m[src][dst] += vol
}

// Total returns the sum of all demands.
func (m TM) Total() float64 {
	var t float64
	for _, row := range m {
		for _, v := range row {
			t += v
		}
	}
	return t
}

// Symmetric returns the n×n pairwise demand S[i][j] = m[i][j] + m[j][i]
// with a zero diagonal: a circuit carries both directions, so a pair's
// weight is its demand both ways. Cells m lacks (every cell when m is nil)
// read as zero.
func (m TM) Symmetric(n int) TM {
	at := func(i, j int) float64 {
		if i < len(m) && j < len(m[i]) {
			return m[i][j]
		}
		return 0
	}
	s := NewTM(n)
	for i := range s {
		for j := range s[i] {
			if i != j {
				s[i][j] = at(i, j) + at(j, i)
			}
		}
	}
	return s
}

// Clone returns a deep copy.
func (m TM) Clone() TM {
	c := make(TM, len(m))
	for i, row := range m {
		c[i] = append([]float64(nil), row...)
	}
	return c
}

// MaxRowCol returns the maximum over all row sums and column sums — the
// bottleneck load used to normalize a matrix for BvN decomposition.
func (m TM) MaxRowCol() float64 {
	n := len(m)
	var mx float64
	for i := 0; i < n; i++ {
		var r, c float64
		for j := 0; j < n; j++ {
			r += m[i][j]
			c += m[j][i]
		}
		mx = math.Max(mx, math.Max(r, c))
	}
	return mx
}

// Doublify scales and pads the matrix into a doubly stochastic one (all row
// and column sums equal 1), the precondition for Birkhoff–von-Neumann
// decomposition. Padding adds fictitious demand spread over slack cells;
// diag cells stay zero unless required to finish the padding.
func (m TM) Doublify() (TM, error) {
	n := len(m)
	if n == 0 {
		return nil, fmt.Errorf("tm: empty matrix")
	}
	mx := m.MaxRowCol()
	d := m.Clone()
	if mx == 0 {
		mx = 1
	}
	for i := range d {
		for j := range d[i] {
			d[i][j] /= mx
		}
	}
	// Iteratively pad: give each (i,j) with row slack and col slack the
	// min of the two slacks. A standard O(n^2) sweep converges because
	// each step zeroes at least one row or column slack.
	rows := make([]float64, n)
	cols := make([]float64, n)
	recompute := func() {
		for i := range rows {
			rows[i], cols[i] = 0, 0
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				rows[i] += d[i][j]
				cols[j] += d[i][j]
			}
		}
	}
	recompute()
	const eps = 1e-12
	for iter := 0; iter < 2*n*n; iter++ {
		var bi, bj = -1, -1
		for i := 0; i < n && bi < 0; i++ {
			if rows[i] < 1-eps {
				for j := 0; j < n; j++ {
					if cols[j] < 1-eps && i != j {
						bi, bj = i, j
						break
					}
				}
				// Allow diagonal fill as a last resort.
				if bi < 0 {
					bi, bj = i, i
				}
			}
		}
		if bi < 0 {
			break
		}
		add := math.Min(1-rows[bi], 1-cols[bj])
		d[bi][bj] += add
		rows[bi] += add
		cols[bj] += add
	}
	for i := 0; i < n; i++ {
		if math.Abs(rows[i]-1) > 1e-6 || math.Abs(cols[i]-1) > 1e-6 {
			return nil, fmt.Errorf("tm: doublify failed at index %d (row=%g col=%g)", i, rows[i], cols[i])
		}
	}
	return d, nil
}
