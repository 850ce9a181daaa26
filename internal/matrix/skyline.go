package matrix

import (
	"fmt"
	"math"
)

// SkylineTemplate captures the structural profile (skyline/envelope) of a
// structurally symmetric sparse matrix so that many matrices with the same
// pattern can be stamped and factored without re-deriving the structure.
// Indices are in the caller's ordering; apply RCM beforehand for a small
// profile.
type SkylineTemplate struct {
	n         int
	first     []int // first stored column of row i (and first row of col i)
	rowptr    []int // offset of row i's strictly-lower entries in the value array
	lowLen    int   // total strictly-lower entries
	symmetric bool  // if true, only lower+diag values are allocated
}

// NewSkylineTemplate builds a template from adjacency lists (as returned by
// Sparse.Adjacency). If symmetric is true the resulting matrices store only
// the lower triangle and support Cholesky; otherwise they store both
// triangles within the symmetric profile and support LU.
func NewSkylineTemplate(adj [][]int, symmetric bool) *SkylineTemplate {
	n := len(adj)
	t := &SkylineTemplate{n: n, symmetric: symmetric}
	t.first = make([]int, n)
	t.rowptr = make([]int, n+1)
	for i := 0; i < n; i++ {
		f := i
		for _, j := range adj[i] {
			if j < f {
				f = j
			}
		}
		t.first[i] = f
		t.rowptr[i+1] = t.rowptr[i] + (i - f)
	}
	t.lowLen = t.rowptr[n]
	return t
}

// NewMatrix allocates a zero matrix over the template's profile.
func (t *SkylineTemplate) NewMatrix() *Skyline {
	m := &Skyline{t: t, diag: make([]float64, t.n), low: make([]float64, t.lowLen)}
	if !t.symmetric {
		m.upp = make([]float64, t.lowLen)
	}
	return m
}

// Skyline is a matrix stored over a SkylineTemplate profile. For symmetric
// templates only diag and low are populated; for general templates upp holds
// the strictly-upper triangle by columns (the profile is symmetric).
type Skyline struct {
	t        *SkylineTemplate
	diag     []float64
	low      []float64 // strictly lower, by rows: row i spans rowptr[i]..rowptr[i+1)
	upp      []float64 // strictly upper, by columns: col j spans rowptr[j]..rowptr[j+1)
	factored bool
}

// Clear zeroes all values and marks the matrix unfactored.
func (m *Skyline) Clear() {
	for i := range m.diag {
		m.diag[i] = 0
	}
	for i := range m.low {
		m.low[i] = 0
	}
	for i := range m.upp {
		m.upp[i] = 0
	}
	m.factored = false
}

// Add accumulates v into entry (i, j). The entry must lie inside the
// template's profile. Negative indices (ground) are ignored so MNA stamps can
// be written uniformly.
func (m *Skyline) Add(i, j int, v float64) {
	if i < 0 || j < 0 {
		return
	}
	t := m.t
	if i >= t.n || j >= t.n {
		panic(fmt.Sprintf("matrix: skyline index (%d,%d) out of range n=%d", i, j, t.n))
	}
	switch {
	case i == j:
		m.diag[i] += v
	case i > j:
		if j < t.first[i] {
			panic(fmt.Sprintf("matrix: skyline entry (%d,%d) outside profile (first=%d)", i, j, t.first[i]))
		}
		m.low[t.rowptr[i]+(j-t.first[i])] += v
	default: // i < j, upper triangle
		if m.upp == nil {
			panic("matrix: upper-triangle stamp on symmetric skyline; stamp the lower triangle")
		}
		if i < t.first[j] {
			panic(fmt.Sprintf("matrix: skyline entry (%d,%d) outside profile (first=%d)", i, j, t.first[j]))
		}
		m.upp[t.rowptr[j]+(i-t.first[j])] += v
	}
}

// At returns the entry (i, j) (zero outside the profile). For symmetric
// matrices the lower value is mirrored.
func (m *Skyline) At(i, j int) float64 {
	t := m.t
	switch {
	case i == j:
		return m.diag[i]
	case i > j:
		if j < t.first[i] {
			return 0
		}
		return m.low[t.rowptr[i]+(j-t.first[i])]
	default:
		if m.upp == nil {
			return m.At(j, i)
		}
		if i < t.first[j] {
			return 0
		}
		return m.upp[t.rowptr[j]+(i-t.first[j])]
	}
}

// lowAt reads the strictly-lower entry (i, j) assuming it is inside the
// profile; callers must guarantee first[i] <= j < i.
func (m *Skyline) lowAt(i, j int) float64 { return m.low[m.t.rowptr[i]+(j-m.t.first[i])] }

func (m *Skyline) uppAt(i, j int) float64 { return m.upp[m.t.rowptr[j]+(i-m.t.first[j])] }

// FactorCholesky factors the symmetric matrix in place as L·Lᵀ. Only the
// lower triangle is read; the factor overwrites the storage. Returns
// ErrNotPositiveDefinite on a non-positive pivot.
func (m *Skyline) FactorCholesky() error {
	if m.factored {
		return fmt.Errorf("matrix: skyline already factored")
	}
	t := m.t
	for i := 0; i < t.n; i++ {
		fi := t.first[i]
		for j := fi; j < i; j++ {
			s := m.lowAt(i, j)
			kStart := fi
			if fj := t.first[j]; fj > kStart {
				kStart = fj
			}
			for k := kStart; k < j; k++ {
				s -= m.lowAt(i, k) * m.lowAt(j, k)
			}
			m.low[t.rowptr[i]+(j-fi)] = s / m.diag[j]
		}
		d := m.diag[i]
		for k := fi; k < i; k++ {
			lik := m.lowAt(i, k)
			d -= lik * lik
		}
		if d <= 0 {
			return fmt.Errorf("%w: skyline pivot %d = %g", ErrNotPositiveDefinite, i, d)
		}
		m.diag[i] = math.Sqrt(d)
	}
	m.factored = true
	return nil
}

// SolveCholesky solves A·x = b after FactorCholesky.
func (m *Skyline) SolveCholesky(b []float64) []float64 {
	y := m.SolveLower(b)
	return m.SolveLowerT(y)
}

// SolveLower solves L·y = b (forward substitution) on a Cholesky-factored
// matrix. This is the F⁻ᵀ application in the SyMPVL symmetrization where
// G = Fᵀ·F with F = Lᵀ.
func (m *Skyline) SolveLower(b []float64) []float64 {
	y := make([]float64, m.t.n)
	m.SolveLowerTo(y, b)
	return y
}

// SolveLowerTo solves L·y = b into dst without allocating. dst may alias b:
// the forward sweep reads b[i] before overwriting position i and only ever
// reads already-written positions j < i afterwards.
func (m *Skyline) SolveLowerTo(dst, b []float64) {
	t := m.t
	if len(b) != t.n || len(dst) != t.n {
		panic("matrix: SolveLowerTo length mismatch")
	}
	for i := 0; i < t.n; i++ {
		s := b[i]
		fi := t.first[i]
		base := t.rowptr[i]
		for j := fi; j < i; j++ {
			s -= m.low[base+(j-fi)] * dst[j]
		}
		dst[i] = s / m.diag[i]
	}
}

// SolveLowerT solves Lᵀ·x = y (back substitution, column sweep) on a
// Cholesky-factored matrix. This is the F⁻¹ application in SyMPVL.
func (m *Skyline) SolveLowerT(y []float64) []float64 {
	x := make([]float64, m.t.n)
	m.SolveLowerTTo(x, y)
	return x
}

// SolveLowerTTo solves Lᵀ·x = y into dst without allocating. dst may alias y
// (the column sweep works on dst in place after the initial copy).
func (m *Skyline) SolveLowerTTo(dst, y []float64) {
	t := m.t
	if len(y) != t.n || len(dst) != t.n {
		panic("matrix: SolveLowerTTo length mismatch")
	}
	if t.n == 0 {
		return
	}
	if &dst[0] != &y[0] {
		copy(dst, y)
	}
	for j := t.n - 1; j >= 0; j-- {
		dst[j] /= m.diag[j]
		fj := t.first[j]
		base := t.rowptr[j]
		xj := dst[j]
		for i := fj; i < j; i++ {
			dst[i] -= m.low[base+(i-fj)] * xj
		}
	}
}

// FactorLU factors the general matrix in place as L·U with unit-lower L
// (Doolittle, no pivoting). MNA matrices assembled with gmin and companion
// conductances are diagonally strong enough for pivot-free factorization;
// a zero pivot returns ErrSingular.
func (m *Skyline) FactorLU() error {
	if m.upp == nil {
		return fmt.Errorf("matrix: FactorLU requires a general (non-symmetric) skyline")
	}
	if m.factored {
		return fmt.Errorf("matrix: skyline already factored")
	}
	t := m.t
	for i := 0; i < t.n; i++ {
		fi := t.first[i]
		for j := fi; j < i; j++ {
			kStart := fi
			if fj := t.first[j]; fj > kStart {
				kStart = fj
			}
			// L(i,j) over row i of L and column j of U.
			s := m.lowAt(i, j)
			for k := kStart; k < j; k++ {
				s -= m.lowAt(i, k) * m.uppAt(k, j)
			}
			if m.diag[j] == 0 {
				return fmt.Errorf("%w: skyline LU pivot %d", ErrSingular, j)
			}
			m.low[t.rowptr[i]+(j-fi)] = s / m.diag[j]
			// U(j,i) over row j of L and column i of U.
			s = m.uppAt(j, i)
			for k := kStart; k < j; k++ {
				s -= m.lowAt(j, k) * m.uppAt(k, i)
			}
			m.upp[t.rowptr[i]+(j-fi)] = s
		}
		d := m.diag[i]
		for k := fi; k < i; k++ {
			d -= m.lowAt(i, k) * m.uppAt(k, i)
		}
		if d == 0 {
			return fmt.Errorf("%w: skyline LU pivot %d", ErrSingular, i)
		}
		m.diag[i] = d
	}
	m.factored = true
	return nil
}

// SolveLU solves A·x = b after FactorLU.
func (m *Skyline) SolveLU(b []float64) []float64 {
	x := make([]float64, m.t.n)
	m.SolveLUTo(x, b)
	return x
}

// SolveLUTo solves A·x = b after FactorLU, writing x into dst without
// allocating. dst may alias b.
func (m *Skyline) SolveLUTo(dst, b []float64) {
	t := m.t
	if len(b) != t.n || len(dst) != t.n {
		panic("matrix: SolveLUTo length mismatch")
	}
	// Forward: L·y = b with unit diagonal.
	x := dst
	copy(x, b)
	for i := 0; i < t.n; i++ {
		fi := t.first[i]
		base := t.rowptr[i]
		s := x[i]
		for j := fi; j < i; j++ {
			s -= m.low[base+(j-fi)] * x[j]
		}
		x[i] = s
	}
	// Backward: U·x = y, column sweep using column-stored upper triangle.
	for j := t.n - 1; j >= 0; j-- {
		x[j] /= m.diag[j]
		fj := t.first[j]
		base := t.rowptr[j]
		xj := x[j]
		for i := fj; i < j; i++ {
			x[i] -= m.upp[base+(i-fj)] * xj
		}
	}
}

// MulVec computes A·x for an unfactored skyline matrix.
func (m *Skyline) MulVec(x []float64) []float64 {
	if m.factored {
		panic("matrix: MulVec on factored skyline")
	}
	t := m.t
	if len(x) != t.n {
		panic("matrix: skyline MulVec length mismatch")
	}
	y := make([]float64, t.n)
	for i := 0; i < t.n; i++ {
		s := m.diag[i] * x[i]
		fi := t.first[i]
		base := t.rowptr[i]
		for j := fi; j < i; j++ {
			lv := m.low[base+(j-fi)]
			s += lv * x[j]
			if m.upp == nil {
				y[j] += lv * x[i]
			} else {
				y[j] += m.upp[base+(j-fi)] * x[i]
			}
		}
		y[i] += s
	}
	return y
}
