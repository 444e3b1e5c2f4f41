package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// forwardVecReference is the one-right-hand-side forward substitution
// ForwardInto must reproduce bit for bit: L y = b, each row's sum taken
// in ascending column order.
func forwardVecReference(c *Cholesky, dst, b []float64) {
	n, l := c.N, c.L.Data
	for i := 0; i < n; i++ {
		s := b[i]
		for k, v := range l[i*n : i*n+i] {
			s -= v * dst[k]
		}
		dst[i] = s / l[i*n+i]
	}
}

// dotReference is the inner product ColumnDots must reproduce bit for
// bit for each column: one sum in ascending index order.
func dotReference(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// randomSPD returns M^T M + n*I for a random n×n M.
func randomSPD(rnd *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = rnd.Float64()*2 - 1
	}
	a, _ := Mul(m.T(), m)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}

// column returns column k of the n×r row-major matrix m.
func column(m []float64, r, k int) []float64 {
	out := make([]float64, 0, len(m)/r)
	for i := k; i < len(m); i += r {
		out = append(out, m[i])
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestForwardIntoMatchesForwardVecBitForBit: every column of a blocked
// forward solve is the one-vector forward substitution of that column,
// bit for bit, for n = 1..40 and r = 1..9 right-hand sides — every width
// of the tail after the blocks of four — and ColumnDots gives each column
// pair's one-vector dot product. With one column, SolveVec's forward half
// is that substitution too.
func TestForwardIntoMatchesForwardVecBitForBit(t *testing.T) {
	rnd := rand.New(rand.NewSource(7))
	for n := 1; n <= 40; n++ {
		ch, err := NewCholesky(randomSPD(rnd, n))
		if err != nil {
			t.Fatal(err)
		}
		for r := 1; r <= 9; r++ {
			b := make([]float64, n*r)
			for i := range b {
				b[i] = rnd.NormFloat64()
			}
			y := make([]float64, n*r)
			if err := ch.ForwardInto(y, b, r); err != nil {
				t.Fatal(err)
			}
			dots := make([]float64, r)
			ColumnDots(dots, y, y)
			for k := 0; k < r; k++ {
				want := make([]float64, n)
				forwardVecReference(ch, want, column(b, r, k))
				if got := column(y, r, k); !sameBits(got, want) {
					t.Fatalf("n=%d r=%d column %d: blocked forward %v, one-vector forward %v", n, r, k, got, want)
				}
				if d := dotReference(want, want); math.Float64bits(dots[k]) != math.Float64bits(d) {
					t.Fatalf("n=%d r=%d column %d: ColumnDots %v, one-vector dot %v", n, r, k, dots[k], d)
				}
			}
		}
	}
}

func TestForwardIntoShapeMismatch(t *testing.T) {
	ch, err := NewCholesky(matFrom(2, 2, 2, 0, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		dst, b int
		r      int
	}{{4, 4, 0}, {4, 6, 2}, {6, 6, 2}, {3, 3, 1}} {
		if err := ch.ForwardInto(make([]float64, tc.dst), make([]float64, tc.b), tc.r); !errors.Is(err, ErrShape) {
			t.Errorf("dst %d, b %d, r %d: got %v, want ErrShape", tc.dst, tc.b, tc.r, err)
		}
	}
}
