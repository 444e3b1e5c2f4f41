package linalg

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// The constructors, dense products and solves below serve only these
// tests: production code factors with CholeskyInto and runs only the
// forward half of a solve, ForwardInto.

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

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

// NewCholesky factors the symmetric positive-definite matrix a.
// Only the lower triangle of a is read. A small jitter can be added by the
// caller to regularize near-singular kernels.
func NewCholesky(a *Matrix) (*Cholesky, error) {
	c := &Cholesky{}
	if err := CholeskyInto(c, a); err != nil {
		return nil, err
	}
	return c, nil
}

// SolveVec solves A x = b for x using the factorization: ForwardInto
// with one right-hand side, then the backward substitution L^T x = y in
// place.
func (c *Cholesky) SolveVec(b []float64) ([]float64, error) {
	x := make([]float64, len(b))
	if err := c.ForwardInto(x, b, 1); err != nil {
		return nil, err
	}
	n, l := c.N, c.L.Data
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * x[k]
		}
		x[i] = s / l[i*n+i]
	}
	return x, nil
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

func matFrom(rows, cols int, vals ...float64) *Matrix {
	m := NewMatrix(rows, cols)
	copy(m.Data, vals)
	return m
}

func vecAlmostEq(a, b []float64, eps float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > eps {
			return false
		}
	}
	return true
}

func TestMatrixAtSet(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Error("At/Set broken")
	}
	if m.At(0, 0) != 0 {
		t.Error("zero init broken")
	}
}

func TestTranspose(t *testing.T) {
	m := matFrom(2, 3, 1, 2, 3, 4, 5, 6)
	mt := m.T()
	if mt.Rows != 3 || mt.Cols != 2 {
		t.Fatalf("T shape %dx%d", mt.Rows, mt.Cols)
	}
	if mt.At(2, 1) != 6 || mt.At(0, 1) != 4 {
		t.Errorf("T values wrong: %v", mt.Data)
	}
}

func TestMul(t *testing.T) {
	a := matFrom(2, 3, 1, 2, 3, 4, 5, 6)
	b := matFrom(3, 2, 7, 8, 9, 10, 11, 12)
	c, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{58, 64, 139, 154}
	if !vecAlmostEq(c.Data, want, 1e-12) {
		t.Errorf("Mul=%v want %v", c.Data, want)
	}
}

func TestMulShapeMismatch(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := Mul(a, b); !errors.Is(err, ErrShape) {
		t.Errorf("expected ErrShape, got %v", err)
	}
	if _, err := MulVec(a, []float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("expected ErrShape, got %v", err)
	}
}

func TestMulVec(t *testing.T) {
	a := matFrom(2, 2, 1, 2, 3, 4)
	got, err := MulVec(a, []float64{5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(got, []float64{17, 39}, 1e-12) {
		t.Errorf("MulVec=%v", got)
	}
}

func TestDot(t *testing.T) {
	var d [1]float64
	if ColumnDots(d[:], []float64{1, 2, 3}, []float64{4, 5, 6}); d[0] != 32 {
		t.Error("Dot wrong")
	}
}

func TestCholeskyKnown(t *testing.T) {
	// A = [[4,12,-16],[12,37,-43],[-16,-43,98]] has L = [[2,0,0],[6,1,0],[-8,5,3]].
	a := matFrom(3, 3, 4, 12, -16, 12, 37, -43, -16, -43, 98)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 0, 0, 6, 1, 0, -8, 5, 3}
	if !vecAlmostEq(ch.L.Data, want, 1e-9) {
		t.Errorf("L=%v want %v", ch.L.Data, want)
	}
}

func TestCholeskySolve(t *testing.T) {
	a := matFrom(2, 2, 4, 2, 2, 3)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := ch.SolveVec([]float64{10, 8})
	if err != nil {
		t.Fatal(err)
	}
	// Verify A x = b.
	b, _ := MulVec(a, x)
	if !vecAlmostEq(b, []float64{10, 8}, 1e-9) {
		t.Errorf("solve residual: Ax=%v", b)
	}
}

func TestCholeskyNotSPD(t *testing.T) {
	a := matFrom(2, 2, 1, 2, 2, 1) // indefinite
	if _, err := NewCholesky(a); !errors.Is(err, ErrNotSPD) {
		t.Errorf("expected ErrNotSPD, got %v", err)
	}
	bad := NewMatrix(2, 3)
	if _, err := NewCholesky(bad); !errors.Is(err, ErrShape) {
		t.Errorf("expected ErrShape for non-square, got %v", err)
	}
}

func TestCholeskySolveShapeMismatch(t *testing.T) {
	a := matFrom(2, 2, 2, 0, 0, 2)
	ch, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.SolveVec([]float64{1, 2, 3}); !errors.Is(err, ErrShape) {
		t.Errorf("expected ErrShape, got %v", err)
	}
}

// TestCholeskySolveRandomSPD: for random SPD matrices A=M^T M + n*I the
// solver must reproduce b = A x.
func TestCholeskySolveRandomSPD(t *testing.T) {
	f := func(seedRaw uint32) bool {
		n := int(seedRaw%6) + 2
		// Build a deterministic pseudo-random matrix from the seed.
		s := seedRaw
		next := func() float64 {
			s = s*1664525 + 1013904223
			return float64(s%2000)/1000 - 1
		}
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = next()
		}
		mt := m.T()
		a, _ := Mul(mt, m)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		xTrue := make([]float64, n)
		for i := range xTrue {
			xTrue[i] = next()
		}
		b, _ := MulVec(a, xTrue)
		got, err := SolveSPD(a, b, 0)
		if err != nil {
			return false
		}
		return vecAlmostEq(got, xTrue, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSolveSPDJitterDoesNotMutate(t *testing.T) {
	a := matFrom(2, 2, 1, 0, 0, 1)
	orig := a.Clone()
	if _, err := SolveSPD(a, []float64{1, 1}, 0.5); err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(a.Data, orig.Data, 0) {
		t.Error("SolveSPD with jitter mutated input matrix")
	}
}

func TestLeastSquaresExactFit(t *testing.T) {
	// y = 2 + 3t fit with design [1, t].
	x := matFrom(4, 2,
		1, 0,
		1, 1,
		1, 2,
		1, 3,
	)
	y := []float64{2, 5, 8, 11}
	beta, err := LeastSquares(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !vecAlmostEq(beta, []float64{2, 3}, 1e-9) {
		t.Errorf("beta=%v want [2 3]", beta)
	}
}

func TestLeastSquaresRidgeHandlesCollinear(t *testing.T) {
	// Two identical columns: plain normal equations are singular, the ridge
	// must rescue the solve.
	x := matFrom(3, 2, 1, 1, 2, 2, 3, 3)
	y := []float64{2, 4, 6}
	beta, err := LeastSquares(x, y, 1e-8)
	if err != nil {
		t.Fatalf("ridge least squares failed: %v", err)
	}
	// Prediction should still match y.
	pred, _ := MulVec(x, beta)
	if !vecAlmostEq(pred, y, 1e-3) {
		t.Errorf("ridge prediction %v want %v", pred, y)
	}
}

func TestLeastSquaresShapeMismatch(t *testing.T) {
	x := NewMatrix(3, 2)
	if _, err := LeastSquares(x, []float64{1, 2}, 0); !errors.Is(err, ErrShape) {
		t.Errorf("expected ErrShape, got %v", err)
	}
}

func TestCloneIndependent(t *testing.T) {
	a := matFrom(1, 2, 1, 2)
	b := a.Clone()
	b.Set(0, 0, 99)
	if a.At(0, 0) != 1 {
		t.Error("Clone shares backing array")
	}
}
