package matrix

import (
	"fmt"
	"sort"
)

// CSR is a compressed-sparse-row matrix frozen from a Sparse accumulator once
// stamping is complete. Rows are stored contiguously with sorted column
// indices, so every traversal (MulVec, Entries, Adjacency) is a linear sweep
// over three flat arrays in a fixed order — no hash lookups, no int64
// division, and no sorted-key cache to invalidate. This is the form every hot
// numeric loop operates on; Sparse remains the assembly-side representation.
type CSR struct {
	n      int
	rowptr []int // row i spans vals[rowptr[i]:rowptr[i+1]]
	colidx []int // sorted within each row
	vals   []float64
}

// Compile freezes the accumulator into CSR form. The Sparse matrix is not
// modified and can keep accumulating; the CSR snapshot is immutable.
func (s *Sparse) Compile() *CSR {
	nnz := len(s.entries)
	c := &CSR{
		n:      s.n,
		rowptr: make([]int, s.n+1),
		colidx: make([]int, nnz),
		vals:   make([]float64, nnz),
	}
	keys := make([]int64, 0, nnz)
	for k := range s.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	row := 0
	for idx, k := range keys {
		i, j := int(k/int64(s.n)), int(k%int64(s.n))
		for row < i {
			row++
			c.rowptr[row] = idx
		}
		c.colidx[idx] = j
		c.vals[idx] = s.entries[k]
	}
	for row < s.n {
		row++
		c.rowptr[row] = nnz
	}
	return c
}

// Size returns n for the n×n matrix.
func (c *CSR) Size() int { return c.n }

// NNZ returns the number of stored entries.
func (c *CSR) NNZ() int { return len(c.vals) }

// At returns the value at (i, j), zero if unset, via binary search within
// row i's sorted column indices.
func (c *CSR) At(i, j int) float64 {
	if i < 0 || i >= c.n || j < 0 || j >= c.n {
		panic(fmt.Sprintf("matrix: CSR index (%d,%d) out of range n=%d", i, j, c.n))
	}
	lo, hi := c.rowptr[i], c.rowptr[i+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case c.colidx[mid] < j:
			lo = mid + 1
		case c.colidx[mid] > j:
			hi = mid
		default:
			return c.vals[mid]
		}
	}
	return 0
}

// Entries returns all stored entries sorted by (row, col) — the same order
// and contents Sparse.Entries produces for the matrix it was compiled from.
func (c *CSR) Entries() []Coord {
	out := make([]Coord, 0, len(c.vals))
	for i := 0; i < c.n; i++ {
		for idx := c.rowptr[i]; idx < c.rowptr[i+1]; idx++ {
			out = append(out, Coord{Row: i, Col: c.colidx[idx], Val: c.vals[idx]})
		}
	}
	return out
}

// ForEach visits every stored entry in (row, col) order — the same order
// Entries returns — without allocating the coordinate slice.
func (c *CSR) ForEach(fn func(i, j int, v float64)) {
	for i := 0; i < c.n; i++ {
		for idx := c.rowptr[i]; idx < c.rowptr[i+1]; idx++ {
			fn(i, c.colidx[idx], c.vals[idx])
		}
	}
}

// MulVec returns A·x.
func (c *CSR) MulVec(x []float64) []float64 {
	out := make([]float64, c.n)
	c.MulVecTo(out, x)
	return out
}

// MulVecTo computes dst = A·x in place without allocating. dst must not
// alias x.
func (c *CSR) MulVecTo(dst, x []float64) {
	if len(x) != c.n || len(dst) != c.n {
		panic("matrix: CSR.MulVecTo length mismatch")
	}
	for i := 0; i < c.n; i++ {
		s := 0.0
		for idx := c.rowptr[i]; idx < c.rowptr[i+1]; idx++ {
			s += c.vals[idx] * x[c.colidx[idx]]
		}
		dst[i] = s
	}
}

// Dense converts to dense form.
func (c *CSR) Dense() *Dense {
	d := NewDense(c.n, c.n)
	for i := 0; i < c.n; i++ {
		for idx := c.rowptr[i]; idx < c.rowptr[i+1]; idx++ {
			d.Set(i, c.colidx[idx], c.vals[idx])
		}
	}
	return d
}

// IsStructurallySymmetric reports whether every stored (i,j) has a stored
// (j,i) counterpart (values may differ).
func (c *CSR) IsStructurallySymmetric() bool {
	for i := 0; i < c.n; i++ {
		for idx := c.rowptr[i]; idx < c.rowptr[i+1]; idx++ {
			j := c.colidx[idx]
			if i == j {
				continue
			}
			// Probe (j, i) without the At bounds re-check.
			lo, hi := c.rowptr[j], c.rowptr[j+1]
			found := false
			for lo < hi {
				mid := (lo + hi) / 2
				switch {
				case c.colidx[mid] < i:
					lo = mid + 1
				case c.colidx[mid] > i:
					hi = mid
				default:
					found = true
					lo = hi
				}
			}
			if !found {
				return false
			}
		}
	}
	return true
}

// Adjacency returns, for each node, the sorted list of distinct neighbours
// implied by the off-diagonal structure (union of row and column pattern).
// Unlike the Sparse implementation it needs no per-node hash sets: neighbour
// counts are tallied in one sweep, lists are filled into a single backing
// array, then each is sorted and deduplicated.
func (c *CSR) Adjacency() [][]int {
	counts := make([]int, c.n)
	for i := 0; i < c.n; i++ {
		for idx := c.rowptr[i]; idx < c.rowptr[i+1]; idx++ {
			if j := c.colidx[idx]; j != i {
				counts[i]++
				counts[j]++
			}
		}
	}
	offs := make([]int, c.n+1)
	for i := 0; i < c.n; i++ {
		offs[i+1] = offs[i] + counts[i]
	}
	backing := make([]int, offs[c.n])
	fill := make([]int, c.n)
	copy(fill, offs[:c.n])
	for i := 0; i < c.n; i++ {
		for idx := c.rowptr[i]; idx < c.rowptr[i+1]; idx++ {
			if j := c.colidx[idx]; j != i {
				backing[fill[i]] = j
				fill[i]++
				backing[fill[j]] = i
				fill[j]++
			}
		}
	}
	out := make([][]int, c.n)
	for i := 0; i < c.n; i++ {
		lst := backing[offs[i]:fill[i]]
		sort.Ints(lst)
		// Deduplicate in place: (i,j) and (j,i) both present produce doubles.
		w := 0
		for r := 0; r < len(lst); r++ {
			if w == 0 || lst[r] != lst[w-1] {
				lst[w] = lst[r]
				w++
			}
		}
		out[i] = lst[:w]
	}
	return out
}

// Permuted returns P·A·Pᵀ where perm maps old index → new index.
func (c *CSR) Permuted(perm []int) *CSR {
	if len(perm) != c.n {
		panic("matrix: CSR.Permuted length mismatch")
	}
	nnz := len(c.vals)
	out := &CSR{
		n:      c.n,
		rowptr: make([]int, c.n+1),
		colidx: make([]int, nnz),
		vals:   make([]float64, nnz),
	}
	// Counting pass over permuted row indices.
	for i := 0; i < c.n; i++ {
		out.rowptr[perm[i]+1] += c.rowptr[i+1] - c.rowptr[i]
	}
	for i := 0; i < c.n; i++ {
		out.rowptr[i+1] += out.rowptr[i]
	}
	fill := make([]int, c.n)
	copy(fill, out.rowptr[:c.n])
	for i := 0; i < c.n; i++ {
		pi := perm[i]
		for idx := c.rowptr[i]; idx < c.rowptr[i+1]; idx++ {
			at := fill[pi]
			out.colidx[at] = perm[c.colidx[idx]]
			out.vals[at] = c.vals[idx]
			fill[pi]++
		}
	}
	// Column indices within each permuted row are no longer sorted; restore
	// the invariant with a small per-row insertion sort (rows are short).
	for i := 0; i < c.n; i++ {
		lo, hi := out.rowptr[i], out.rowptr[i+1]
		for a := lo + 1; a < hi; a++ {
			cj, cv := out.colidx[a], out.vals[a]
			b := a - 1
			for b >= lo && out.colidx[b] > cj {
				out.colidx[b+1], out.vals[b+1] = out.colidx[b], out.vals[b]
				b--
			}
			out.colidx[b+1], out.vals[b+1] = cj, cv
		}
	}
	return out
}
