package matrix

import (
	"fmt"
	"math"
)

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix A = L·Lᵀ.
type Cholesky struct {
	l *Dense
}

// FactorCholesky computes the Cholesky factorization of a symmetric positive
// definite matrix. Only the lower triangle of a is read. It returns
// ErrNotPositiveDefinite if a pivot is non-positive.
func FactorCholesky(a *Dense) (*Cholesky, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("matrix: FactorCholesky needs square matrix, got %dx%d", a.rows, a.cols)
	}
	n := a.rows
	l := NewDense(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			ljk := l.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 {
			return nil, fmt.Errorf("%w: pivot %d = %g", ErrNotPositiveDefinite, j, d)
		}
		d = math.Sqrt(d)
		l.Set(j, j, d)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/d)
		}
	}
	return &Cholesky{l: l}, nil
}

// ErrNotPositiveDefinite is returned when Cholesky factorization encounters a
// non-positive pivot.
var ErrNotPositiveDefinite = fmt.Errorf("matrix: not positive definite")

// L returns a copy of the lower-triangular factor.
func (c *Cholesky) L() *Dense { return c.l.Clone() }

// Solve solves A·x = b.
func (c *Cholesky) Solve(b []float64) []float64 {
	y := c.SolveLower(b)
	return c.SolveUpper(y)
}

// SolveLower solves L·y = b (forward substitution).
func (c *Cholesky) SolveLower(b []float64) []float64 {
	n := c.l.rows
	if len(b) != n {
		panic("matrix: Cholesky.SolveLower length mismatch")
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		ri := c.l.data[i*n : (i+1)*n]
		for j := 0; j < i; j++ {
			s -= ri[j] * y[j]
		}
		y[i] = s / ri[i]
	}
	return y
}

// SolveUpper solves Lᵀ·x = y (back substitution).
func (c *Cholesky) SolveUpper(y []float64) []float64 {
	n := c.l.rows
	if len(y) != n {
		panic("matrix: Cholesky.SolveUpper length mismatch")
	}
	x := CloneVec(y)
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= c.l.At(j, i) * x[j]
		}
		x[i] = s / c.l.At(i, i)
	}
	return x
}
