// Package matrix provides the dense and sparse linear algebra kernels used
// by the parasitic-coupling verification flow: dense LU/Cholesky
// factorizations, Gram–Schmidt deflation, a symmetric eigensolver, skyline
// (profile) sparse factorizations, and reverse Cuthill–McKee bandwidth
// reduction.
//
// The package is self-contained (standard library only) and sized for the
// matrix regimes that arise in chip-level crosstalk analysis: reduced-order
// models of a few tens of states (dense paths) and pruned RC clusters of up
// to a few tens of thousands of nodes (skyline paths).
package matrix

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// Dense is a row-major dense matrix of float64 values.
type Dense struct {
	rows, cols int
	data       []float64
}

// NewDense returns a rows×cols zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: invalid dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// NewDenseFromRows builds a matrix from a slice of equal-length rows.
func NewDenseFromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return NewDense(0, 0)
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.cols {
			panic("matrix: ragged rows")
		}
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at (i, j).
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add increments the element at (i, j) by v.
func (m *Dense) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Col returns a copy of column j.
func (m *Dense) Col(j int) []float64 {
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		out[i] = m.data[i*m.cols+j]
	}
	return out
}

// SetCol assigns column j from v.
func (m *Dense) SetCol(j int, v []float64) {
	if len(v) != m.rows {
		panic("matrix: SetCol length mismatch")
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.cols+i] = m.data[i*m.cols+j]
		}
	}
	return out
}

// SubMat returns m - b as a new matrix.
func (m *Dense) SubMat(b *Dense) *Dense {
	if m.rows != b.rows || m.cols != b.cols {
		panic("matrix: SubMat dimension mismatch")
	}
	out := m.Clone()
	for i := range out.data {
		out.data[i] -= b.data[i]
	}
	return out
}

// Mul returns the matrix product m·b.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.cols != b.rows {
		panic(fmt.Sprintf("matrix: Mul dimension mismatch %dx%d · %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewDense(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		mi := m.data[i*m.cols : (i+1)*m.cols]
		oi := out.data[i*out.cols : (i+1)*out.cols]
		for k, mik := range mi {
			if mik == 0 {
				continue
			}
			bk := b.data[k*b.cols : (k+1)*b.cols]
			for j, bkj := range bk {
				oi[j] += mik * bkj
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m·x.
func (m *Dense) MulVec(x []float64) []float64 {
	out := make([]float64, m.rows)
	m.MulVecTo(out, x)
	return out
}

// MulVecTo computes dst = m·x in place without allocating. dst must not
// alias x.
func (m *Dense) MulVecTo(dst, x []float64) {
	if m.cols != len(x) || m.rows != len(dst) {
		panic("matrix: MulVecTo dimension mismatch")
	}
	for i := 0; i < m.rows; i++ {
		s := 0.0
		mi := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range mi {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// MulVecT returns mᵀ·x without forming the transpose.
func (m *Dense) MulVecT(x []float64) []float64 {
	if m.rows != len(x) {
		panic("matrix: MulVecT dimension mismatch")
	}
	out := make([]float64, m.cols)
	for i := 0; i < m.rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		mi := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range mi {
			out[j] += v * xi
		}
	}
	return out
}

// IsSymmetric reports whether |m[i][j]-m[j][i]| <= tol·max(|m[i][j]|,|m[j][i]|,1)
// for all i, j.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.rows != m.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := i + 1; j < m.cols; j++ {
			a, b := m.At(i, j), m.At(j, i)
			scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
			if math.Abs(a-b) > tol*scale {
				return false
			}
		}
	}
	return true
}

// MaxAbs returns the largest absolute element value (0 for empty matrices).
func (m *Dense) MaxAbs() float64 {
	max := 0.0
	for _, v := range m.data {
		if a := math.Abs(v); a > max {
			max = a
		}
	}
	return max
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			fmt.Fprintf(&b, "% .6e ", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ErrSingular is returned by factorizations when the matrix is numerically
// singular at the working precision.
var ErrSingular = errors.New("matrix: singular matrix")

// LU holds a dense LU factorization with partial pivoting: P·A = L·U.
type LU struct {
	lu   *Dense
	piv  []int
	sign int
}

// FactorLU computes the LU factorization of a square matrix with partial
// pivoting. The input matrix is not modified.
func FactorLU(a *Dense) (*LU, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("matrix: FactorLU needs square matrix, got %dx%d", a.rows, a.cols)
	}
	n := a.rows
	lu := a.Clone()
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Partial pivoting: pick the largest magnitude in column k.
		p := k
		maxv := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu.At(i, k)); v > maxv {
				maxv, p = v, i
			}
		}
		if maxv == 0 {
			return nil, ErrSingular
		}
		if p != k {
			rk := lu.data[k*n : (k+1)*n]
			rp := lu.data[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		pivot := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			lik := lu.At(i, k) / pivot
			lu.Set(i, k, lik)
			if lik == 0 {
				continue
			}
			ri := lu.data[i*n : (i+1)*n]
			rk := lu.data[k*n : (k+1)*n]
			for j := k + 1; j < n; j++ {
				ri[j] -= lik * rk[j]
			}
		}
	}
	return &LU{lu: lu, piv: piv, sign: sign}, nil
}

// Solve solves A·x = b for x given the factorization.
func (f *LU) Solve(b []float64) ([]float64, error) {
	x := make([]float64, f.lu.rows)
	if err := f.SolveTo(x, b); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveTo solves A·x = b into dst without allocating. dst must not alias b
// (the pivot gather reads b after dst positions are written).
func (f *LU) SolveTo(dst, b []float64) error {
	n := f.lu.rows
	if len(b) != n || len(dst) != n {
		return fmt.Errorf("matrix: LU.SolveTo length mismatch %d vs %d", len(b), n)
	}
	x := dst
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit lower-triangular L.
	for i := 1; i < n; i++ {
		ri := f.lu.data[i*n : (i+1)*n]
		s := x[i]
		for j := 0; j < i; j++ {
			s -= ri[j] * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		ri := f.lu.data[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * x[j]
		}
		d := ri[i]
		if d == 0 {
			return ErrSingular
		}
		x[i] = s / d
	}
	return nil
}

// SolveLUInPlace factors the n×n row-major matrix a in place with partial
// pivoting (destroying its contents) and overwrites b with the solution of
// a·x = b. piv is caller-provided scratch of length n. It is the
// zero-allocation path for the small Woodbury core systems solved at every
// Newton iteration of the transient integrators.
func SolveLUInPlace(a []float64, n int, piv []int, b []float64) error {
	if len(a) != n*n {
		return fmt.Errorf("matrix: SolveLUInPlace needs %d×%d = %d entries, got %d", n, n, n*n, len(a))
	}
	if len(piv) != n || len(b) != n {
		return fmt.Errorf("matrix: SolveLUInPlace scratch length mismatch")
	}
	for k := 0; k < n; k++ {
		p := k
		maxv := math.Abs(a[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a[i*n+k]); v > maxv {
				maxv, p = v, i
			}
		}
		if maxv == 0 {
			return ErrSingular
		}
		// Record the swap LAPACK-style (row p exchanged with row k at step
		// k); replaying the same swaps on b applies the pivot permutation.
		piv[k] = p
		if p != k {
			rk, rp := a[k*n:(k+1)*n], a[p*n:(p+1)*n]
			for j := 0; j < n; j++ {
				rk[j], rp[j] = rp[j], rk[j]
			}
		}
		pivot := a[k*n+k]
		for i := k + 1; i < n; i++ {
			lik := a[i*n+k] / pivot
			a[i*n+k] = lik
			if lik == 0 {
				continue
			}
			ri, rk := a[i*n:(i+1)*n], a[k*n:(k+1)*n]
			for j := k + 1; j < n; j++ {
				ri[j] -= lik * rk[j]
			}
		}
	}
	for k := 0; k < n; k++ {
		if p := piv[k]; p != k {
			b[k], b[p] = b[p], b[k]
		}
	}
	for i := 1; i < n; i++ {
		ri := a[i*n : (i+1)*n]
		s := b[i]
		for j := 0; j < i; j++ {
			s -= ri[j] * b[j]
		}
		b[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		ri := a[i*n : (i+1)*n]
		s := b[i]
		for j := i + 1; j < n; j++ {
			s -= ri[j] * b[j]
		}
		d := ri[i]
		if d == 0 {
			return ErrSingular
		}
		b[i] = s / d
	}
	return nil
}

// Det returns the determinant from the factorization.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	n := f.lu.rows
	for i := 0; i < n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}
