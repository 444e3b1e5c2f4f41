// Package linalg implements the dense linear algebra the Gaussian-process
// substrate needs: row-major matrices, Cholesky factorization of symmetric
// positive-definite systems, the forward substitution L⁻¹B for many
// right-hand sides at once, and column-wise dot products. Eq. 6's
// posterior variance k(t,t) − ‖L⁻¹k_A(t)‖² needs no backward
// substitution, so the package has none.
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

// At returns element (i,j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Cholesky holds the lower-triangular factor L with A = L*L^T.
type Cholesky struct {
	N int
	L *Matrix // lower triangular, upper part zero
}

// CholeskyInto factors the symmetric positive-definite matrix a into c,
// reusing c's storage when it is large enough, for callers that factorize
// many small systems in a row. Only the lower triangle of a is read. On
// error c holds no usable factor.
func CholeskyInto(c *Cholesky, a *Matrix) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("%w: cholesky of %dx%d", ErrShape, a.Rows, a.Cols)
	}
	n := a.Rows
	if c.L == nil {
		c.L = &Matrix{}
	}
	l := c.L
	l.Rows, l.Cols = n, n
	if cap(l.Data) < n*n {
		// Twice the old capacity when that is more: a caller factorizing
		// ever larger systems reallocates a logarithmic number of times.
		l.Data = make([]float64, n*n, max(n*n, 2*cap(l.Data)))
	} else {
		l.Data = l.Data[:n*n]
		clear(l.Data) // the upper part stays zero
	}
	c.N = n
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			ljk := l.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return fmt.Errorf("%w: pivot %d = %g", ErrNotSPD, j, d)
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
	return nil
}

// ForwardInto solves L Y = B for r right-hand sides at once, the forward
// half of a Cholesky solve: Y = L⁻¹B. b and dst hold n×r matrices
// row-major, so column k of b is the k-th right-hand side and column k
// of dst its solution; dst must not overlap b.
//
// The columns are solved four at a time: one pass over the factor serves
// four columns, each carried in its own accumulator, and the last r mod 4
// columns are solved one at a time. Every column sees exactly the
// operations, in exactly the order, of a forward substitution with that
// column alone — row i is b[i] minus l[i][k]·y[k] for k ascending,
// divided by l[i][i] — so each result is bit-identical whatever r is and
// wherever the column sits.
func (c *Cholesky) ForwardInto(dst, b []float64, r int) error {
	n, l := c.N, c.L.Data
	if r < 1 || len(b) != n*r || len(dst) != n*r {
		return fmt.Errorf("%w: forward solve with %d values into %d, n=%d, %d right-hand sides", ErrShape, len(b), len(dst), n, r)
	}
	col := 0
	for ; col+4 <= r; col += 4 {
		for i := 0; i < n; i++ {
			bi := b[i*r+col : i*r+col+4]
			s0, s1, s2, s3 := bi[0], bi[1], bi[2], bi[3]
			for k, v := range l[i*n : i*n+i] {
				y := dst[k*r+col : k*r+col+4]
				s0 -= v * y[0]
				s1 -= v * y[1]
				s2 -= v * y[2]
				s3 -= v * y[3]
			}
			d := l[i*n+i]
			y := dst[i*r+col : i*r+col+4]
			y[0], y[1], y[2], y[3] = s0/d, s1/d, s2/d, s3/d
		}
	}
	for ; col < r; col++ {
		for i := 0; i < n; i++ {
			s := b[i*r+col]
			for k, v := range l[i*n : i*n+i] {
				s -= v * dst[k*r+col]
			}
			dst[i*r+col] = s / l[i*n+i]
		}
	}
	return nil
}

// ColumnDots writes into each dst[k] the inner product of column k of a
// and column k of b, two row-major matrices of len(dst) columns, summed
// in ascending row order; four columns are carried at a time, each in its
// own accumulator. With one column it is the dot product of two vectors.
func ColumnDots(dst, a, b []float64) {
	r := len(dst)
	if r == 0 {
		return
	}
	n := len(a) / r
	col := 0
	for ; col+4 <= r; col += 4 {
		var s0, s1, s2, s3 float64
		for i := 0; i < n; i++ {
			x, y := a[i*r+col:i*r+col+4], b[i*r+col:i*r+col+4]
			s0 += x[0] * y[0]
			s1 += x[1] * y[1]
			s2 += x[2] * y[2]
			s3 += x[3] * y[3]
		}
		dst[col], dst[col+1], dst[col+2], dst[col+3] = s0, s1, s2, s3
	}
	for ; col < r; col++ {
		var s float64
		for i := 0; i < n; i++ {
			s += a[i*r+col] * b[i*r+col]
		}
		dst[col] = s
	}
}
