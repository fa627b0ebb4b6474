package core

import (
	"math/rand"
	"testing"
)

// TestSymmetric: S[i][j] is exactly m[i][j] + m[j][i] off the diagonal and
// zero on it, and a nil matrix gives n×n zeros.
func TestSymmetric(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	const n = 9
	m := NewTM(n)
	for i := range m {
		for j := range m[i] {
			m[i][j] = r.ExpFloat64() * 1e6
		}
	}
	s := m.Symmetric(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := m[i][j] + m[j][i]
			if i == j {
				want = 0
			}
			if s[i][j] != want {
				t.Fatalf("S[%d][%d] = %v, want %v", i, j, s[i][j], want)
			}
		}
	}
	z := TM(nil).Symmetric(4)
	if len(z) != 4 || z.Total() != 0 {
		t.Fatalf("nil TM gave %v, want 4×4 zeros", z)
	}
	for _, row := range z {
		if len(row) != 4 {
			t.Fatalf("nil TM gave a row of %d cells, want 4", len(row))
		}
	}
}
