package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// solveVecReference is the one-right-hand-side Cholesky solve SolveInto
// must reproduce bit for bit: forward then backward substitution, each
// row's sum taken in ascending column order.
func solveVecReference(c *Cholesky, dst, b []float64) {
	n, l := c.N, c.L.Data
	for i := 0; i < n; i++ {
		s := b[i]
		for k, v := range l[i*n : i*n+i] {
			s -= v * dst[k]
		}
		dst[i] = s / l[i*n+i]
	}
	for i := n - 1; i >= 0; i-- {
		s := dst[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * dst[k]
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

// TestSolveIntoMatchesSolveVecBitForBit: every column of a blocked solve
// is the one-vector solve of that column, bit for bit, for n = 1..40 and
// r = 1..9 right-hand sides — every width of the tail after the blocks of
// four — and ColumnDots gives each column pair's one-vector dot product.
func TestSolveIntoMatchesSolveVecBitForBit(t *testing.T) {
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
			x := make([]float64, n*r)
			if err := ch.SolveInto(x, b, r); err != nil {
				t.Fatal(err)
			}
			dots := make([]float64, r)
			ColumnDots(dots, b, x)
			for k := 0; k < r; k++ {
				bk := column(b, r, k)
				want := make([]float64, n)
				solveVecReference(ch, want, bk)
				if got := column(x, r, k); !sameBits(got, want) {
					t.Fatalf("n=%d r=%d column %d: blocked solve %v, one-vector solve %v", n, r, k, got, want)
				}
				if d := dotReference(bk, want); math.Float64bits(dots[k]) != math.Float64bits(d) {
					t.Fatalf("n=%d r=%d column %d: ColumnDots %v, one-vector dot %v", n, r, k, dots[k], d)
				}
			}
			if r == 1 {
				got := make([]float64, n)
				if err := ch.SolveVecInto(got, b); err != nil || !sameBits(got, x) {
					t.Fatalf("n=%d: SolveVecInto %v (%v), SolveInto with one column %v", n, got, err, x)
				}
			}
		}
	}
}

func TestSolveIntoShapeMismatch(t *testing.T) {
	ch, err := NewCholesky(matFrom(2, 2, 2, 0, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		dst, b int
		r      int
	}{{4, 4, 0}, {4, 6, 2}, {6, 6, 2}, {3, 3, 1}} {
		if err := ch.SolveInto(make([]float64, tc.dst), make([]float64, tc.b), tc.r); !errors.Is(err, ErrShape) {
			t.Errorf("dst %d, b %d, r %d: got %v, want ErrShape", tc.dst, tc.b, tc.r, err)
		}
	}
}
