// Package linalg implements the dense linear algebra needed by the
// Gaussian-process and regression substrates: column-major-free simple
// matrices, Cholesky factorization of symmetric positive-definite systems,
// triangular solves and least squares via normal equations.
//
// The library is deliberately small: the paper's models need SPD solves of
// at most a few hundred dimensions, for which straightforward O(n^3)
// Cholesky is both robust and fast enough.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned when a Cholesky factorization encounters a
// non-positive pivot, i.e. the matrix is not (numerically) positive
// definite.
var ErrNotSPD = errors.New("linalg: matrix is not positive definite")

// ErrShape is returned on dimension mismatches.
var ErrShape = errors.New("linalg: dimension mismatch")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Mul returns a*b.
func Mul(a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("%w: (%dx%d)*(%dx%d)", ErrShape, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			rowB := b.Data[k*b.Cols : (k+1)*b.Cols]
			rowOut := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, bv := range rowB {
				rowOut[j] += aik * bv
			}
		}
	}
	return out, nil
}

// MulVec returns a*x for a vector x.
func MulVec(a *Matrix, x []float64) ([]float64, error) {
	if a.Cols != len(x) {
		return nil, fmt.Errorf("%w: (%dx%d)*vec(%d)", ErrShape, a.Rows, a.Cols, len(x))
	}
	out := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Cholesky holds the lower-triangular factor L with A = L*L^T.
type Cholesky struct {
	N int
	L *Matrix // lower triangular, upper part zero
}

// NewCholesky factors the symmetric positive-definite matrix a.
// Only the lower triangle of a is read. A small jitter can be added by the
// caller to regularize near-singular kernels.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: cholesky of %dx%d", ErrShape, a.Rows, a.Cols)
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			ljk := l.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: pivot %d = %g", ErrNotSPD, j, d)
		}
		ljj := math.Sqrt(d)
		l.Set(j, j, ljj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/ljj)
		}
	}
	return &Cholesky{N: n, L: l}, nil
}

// SolveVec solves A x = b for x using the factorization.
func (c *Cholesky) SolveVec(b []float64) ([]float64, error) {
	x := make([]float64, len(b))
	return x, c.SolveVecInto(x, b)
}

// SolveVecInto is SolveVec writing x into dst, for callers that solve
// against one factorization many times. dst must not overlap b.
func (c *Cholesky) SolveVecInto(dst, b []float64) error {
	if len(b) != c.N || len(dst) != c.N {
		return fmt.Errorf("%w: solve with vec(%d) into vec(%d), n=%d", ErrShape, len(b), len(dst), c.N)
	}
	n, l := c.N, c.L.Data
	// Forward solve L y = b, y held in dst.
	for i := 0; i < n; i++ {
		s := b[i]
		for k, v := range l[i*n : i*n+i] {
			s -= v * dst[k]
		}
		dst[i] = s / l[i*n+i]
	}
	// Backward solve L^T x = y in place: step i reads y[i] and the
	// already final x[i+1:], then overwrites y[i] with x[i].
	for i := n - 1; i >= 0; i-- {
		s := dst[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * dst[k]
		}
		dst[i] = s / l[i*n+i]
	}
	return nil
}

// SolveSPD solves A x = b for a symmetric positive-definite A with optional
// diagonal jitter for numerical robustness.
func SolveSPD(a *Matrix, b []float64, jitter float64) ([]float64, error) {
	work := a
	if jitter > 0 {
		work = a.Clone()
		for i := 0; i < work.Rows; i++ {
			work.Set(i, i, work.At(i, i)+jitter)
		}
	}
	ch, err := NewCholesky(work)
	if err != nil {
		return nil, err
	}
	return ch.SolveVec(b)
}

// LeastSquares solves min ||X beta - y||^2 via the normal equations
// (X^T X + ridge*I) beta = X^T y. A small ridge keeps the system SPD when X
// has (near) collinear columns, which happens with degenerate sampling-time
// subsets in the location-monitoring valuation.
func LeastSquares(x *Matrix, y []float64, ridge float64) ([]float64, error) {
	if x.Rows != len(y) {
		return nil, fmt.Errorf("%w: lstsq X %dx%d, y %d", ErrShape, x.Rows, x.Cols, len(y))
	}
	xt := x.T()
	xtx, err := Mul(xt, x)
	if err != nil {
		return nil, err
	}
	for i := 0; i < xtx.Rows; i++ {
		xtx.Set(i, i, xtx.At(i, i)+ridge)
	}
	xty, err := MulVec(xt, y)
	if err != nil {
		return nil, err
	}
	return SolveSPD(xtx, xty, 0)
}
