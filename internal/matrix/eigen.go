package matrix

import (
	"fmt"
	"math"
	"sort"
)

// EigenSym computes all eigenvalues and orthonormal eigenvectors of a
// symmetric matrix using Householder tridiagonalization followed by the
// implicit-shift QL algorithm (the classic EISPACK tred2/tql2 pair).
//
// It returns the eigenvalues in ascending order and a matrix whose columns
// are the corresponding eigenvectors, so that A = V·diag(w)·Vᵀ.
func EigenSym(a *Dense) (w []float64, v *Dense, err error) {
	if a.rows != a.cols {
		return nil, nil, fmt.Errorf("matrix: EigenSym needs square matrix, got %dx%d", a.rows, a.cols)
	}
	n := a.rows
	if n == 0 {
		return nil, NewDense(0, 0), nil
	}
	z := a.Clone() // will become the accumulated transform
	d := make([]float64, n)
	e := make([]float64, n)
	tred2(z, d, e)
	if err := tql2(z, d, e); err != nil {
		return nil, nil, err
	}
	// Sort eigenpairs ascending by eigenvalue.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return d[idx[i]] < d[idx[j]] })
	w = make([]float64, n)
	v = NewDense(n, n)
	for newCol, oldCol := range idx {
		w[newCol] = d[oldCol]
		for i := 0; i < n; i++ {
			v.Set(i, newCol, z.At(i, oldCol))
		}
	}
	return w, v, nil
}

// tred2 reduces a symmetric matrix (stored in z) to tridiagonal form using
// Householder reflections, accumulating the orthogonal transform in z.
// On return d holds the diagonal and e the sub-diagonal (e[0] = 0). The
// loops index z's row-major data directly: element (r, c) is zd[r*n+c].
func tred2(z *Dense, d, e []float64) {
	n := z.rows
	zd := z.data
	last := zd[(n-1)*n:]
	for i := 0; i < n; i++ {
		d[i] = last[i]
	}
	for i := n - 1; i > 0; i-- {
		// Scale to avoid under/overflow.
		scale, h := 0.0, 0.0
		for k := 0; k < i; k++ {
			scale += math.Abs(d[k])
		}
		if scale == 0 {
			e[i] = d[i-1]
			for j := 0; j < i; j++ {
				d[j] = zd[(i-1)*n+j]
				zd[i*n+j] = 0
				zd[j*n+i] = 0
			}
		} else {
			for k := 0; k < i; k++ {
				d[k] /= scale
				h += d[k] * d[k]
			}
			f := d[i-1]
			g := math.Sqrt(h)
			if f > 0 {
				g = -g
			}
			e[i] = scale * g
			h -= f * g
			d[i-1] = f - g
			for j := 0; j < i; j++ {
				e[j] = 0
			}
			// Apply similarity transformation to remaining columns.
			for j := 0; j < i; j++ {
				f = d[j]
				zd[j*n+i] = f
				g = e[j] + zd[j*n+j]*f
				for k := j + 1; k <= i-1; k++ {
					zkj := zd[k*n+j]
					g += zkj * d[k]
					e[k] += zkj * f
				}
				e[j] = g
			}
			f = 0
			for j := 0; j < i; j++ {
				e[j] /= h
				f += e[j] * d[j]
			}
			hh := f / (h + h)
			for j := 0; j < i; j++ {
				e[j] -= hh * d[j]
			}
			for j := 0; j < i; j++ {
				f = d[j]
				g = e[j]
				for k := j; k <= i-1; k++ {
					zd[k*n+j] += -(f*e[k] + g*d[k])
				}
				d[j] = zd[(i-1)*n+j]
				zd[i*n+j] = 0
			}
		}
		d[i] = h
	}
	// Accumulate transformations.
	for i := 0; i < n-1; i++ {
		last[i] = zd[i*n+i]
		zd[i*n+i] = 1
		h := d[i+1]
		if h != 0 {
			for k := 0; k <= i; k++ {
				d[k] = zd[k*n+i+1] / h
			}
			for j := 0; j <= i; j++ {
				g := 0.0
				for k := 0; k <= i; k++ {
					g += zd[k*n+i+1] * zd[k*n+j]
				}
				for k := 0; k <= i; k++ {
					zd[k*n+j] += -g * d[k]
				}
			}
		}
		for k := 0; k <= i; k++ {
			zd[k*n+i+1] = 0
		}
	}
	for j := 0; j < n; j++ {
		d[j] = last[j]
		last[j] = 0
	}
	last[n-1] = 1
	e[0] = 0
}

// tql2 finds the eigenvalues and eigenvectors of a symmetric tridiagonal
// matrix using the QL algorithm with implicit shifts. d holds the diagonal,
// e the sub-diagonal (e[0] unused), and z the transform accumulated by tred2.
func tql2(z *Dense, d, e []float64) error {
	n := z.rows
	for i := 1; i < n; i++ {
		e[i-1] = e[i]
	}
	e[n-1] = 0
	f, tst1 := 0.0, 0.0
	eps := math.Nextafter(1, 2) - 1
	for l := 0; l < n; l++ {
		tst1 = math.Max(tst1, math.Abs(d[l])+math.Abs(e[l]))
		m := l
		for m < n {
			if math.Abs(e[m]) <= eps*tst1 {
				break
			}
			m++
		}
		if m > l {
			for iter := 0; ; iter++ {
				if iter >= 50 {
					return fmt.Errorf("matrix: tql2 failed to converge at eigenvalue %d", l)
				}
				// Compute implicit shift.
				g := d[l]
				p := (d[l+1] - g) / (2 * e[l])
				r := math.Hypot(p, 1)
				if p < 0 {
					r = -r
				}
				d[l] = e[l] / (p + r)
				d[l+1] = e[l] * (p + r)
				dl1 := d[l+1]
				h := g - d[l]
				for i := l + 2; i < n; i++ {
					d[i] -= h
				}
				f += h
				// Implicit QL transformation.
				p = d[m]
				c, c2, c3 := 1.0, 1.0, 1.0
				el1 := e[l+1]
				s, s2 := 0.0, 0.0
				for i := m - 1; i >= l; i-- {
					c3 = c2
					c2 = c
					s2 = s
					g = c * e[i]
					h = c * p
					r = math.Hypot(p, e[i])
					e[i+1] = s * r
					s = e[i] / r
					c = p / r
					p = c*d[i] - s*g
					d[i+1] = h + s*(c*g+s*d[i])
					// Accumulate the rotation in the eigenvector matrix:
					// columns i and i+1 of each row of z.
					for o := i; o < len(z.data); o += n {
						zi, zi1 := z.data[o], z.data[o+1]
						z.data[o+1] = s*zi + c*zi1
						z.data[o] = c*zi - s*zi1
					}
				}
				p = -s * s2 * c3 * el1 * e[l] / dl1
				e[l] = s * p
				d[l] = c * p
				if math.Abs(e[l]) <= eps*tst1 {
					break
				}
			}
		}
		d[l] += f
		e[l] = 0
	}
	return nil
}
