package matrix

import (
	"fmt"
	"sort"
)

// Coord is a single (row, col, value) entry of a sparse matrix.
type Coord struct {
	Row, Col int
	Val      float64
}

// Sparse accumulates entries of an n×n sparse matrix in coordinate form with
// duplicate summing. It is strictly the assembly-side representation used by
// MNA stamping: once stamping completes, callers freeze it with Compile into
// an immutable CSR matrix, and all hot loops run on that. Keeping the
// map-backed accumulator out of the simulation paths removes both the
// per-entry hash lookups and the historical hazard of the sorted-key cache
// going stale under interleaved Add/MulVec.
type Sparse struct {
	n       int
	entries map[int64]float64
	// keys caches the sorted entry keys so value-accumulating iterations
	// (MulVec, Entries) run in a fixed order: map iteration order is
	// randomized per range statement, and letting it pick the summation
	// order makes results differ in the last few ulps from one run to the
	// next. Lazily built, invalidated whenever a new key appears.
	keys []int64
}

// NewSparse returns an empty n×n sparse accumulator.
func NewSparse(n int) *Sparse {
	if n < 0 {
		panic("matrix: NewSparse negative size")
	}
	return &Sparse{n: n, entries: make(map[int64]float64)}
}

// Size returns n for the n×n matrix.
func (s *Sparse) Size() int { return s.n }

func (s *Sparse) key(i, j int) int64 {
	if i < 0 || i >= s.n || j < 0 || j >= s.n {
		panic(fmt.Sprintf("matrix: sparse index (%d,%d) out of range n=%d", i, j, s.n))
	}
	return int64(i)*int64(s.n) + int64(j)
}

// Add accumulates v into entry (i, j).
func (s *Sparse) Add(i, j int, v float64) {
	if v == 0 {
		return
	}
	k := s.key(i, j)
	if _, ok := s.entries[k]; !ok {
		s.keys = nil // structure changed: the sorted-key cache is stale
	}
	s.entries[k] += v
}

// sortedKeys returns the entry keys in ascending (row, col) order, building
// the cache on first use after a structural change.
func (s *Sparse) sortedKeys() []int64 {
	if s.keys == nil && len(s.entries) > 0 {
		s.keys = make([]int64, 0, len(s.entries))
		for k := range s.entries {
			s.keys = append(s.keys, k)
		}
		sort.Slice(s.keys, func(a, b int) bool { return s.keys[a] < s.keys[b] })
	}
	return s.keys
}

// AddSym accumulates the symmetric 2×2 conductance-style stamp
// +v at (i,i) and (j,j), −v at (i,j) and (j,i). Negative node indices denote
// ground and are skipped, which matches MNA stamping conventions.
func (s *Sparse) AddSym(i, j int, v float64) {
	if i >= 0 {
		s.Add(i, i, v)
	}
	if j >= 0 {
		s.Add(j, j, v)
	}
	if i >= 0 && j >= 0 {
		s.Add(i, j, -v)
		s.Add(j, i, -v)
	}
}

// At returns the value at (i, j), zero if unset.
func (s *Sparse) At(i, j int) float64 { return s.entries[s.key(i, j)] }

// NNZ returns the number of stored (possibly zero-valued) entries.
func (s *Sparse) NNZ() int { return len(s.entries) }

// Entries returns all stored entries sorted by (row, col).
func (s *Sparse) Entries() []Coord {
	out := make([]Coord, 0, len(s.entries))
	for _, k := range s.sortedKeys() {
		out = append(out, Coord{Row: int(k / int64(s.n)), Col: int(k % int64(s.n)), Val: s.entries[k]})
	}
	return out
}

// Dense converts the sparse matrix to dense form.
func (s *Sparse) Dense() *Dense {
	d := NewDense(s.n, s.n)
	for k, v := range s.entries {
		d.Set(int(k/int64(s.n)), int(k%int64(s.n)), v)
	}
	return d
}

// MulVec returns A·x.
func (s *Sparse) MulVec(x []float64) []float64 {
	if len(x) != s.n {
		panic("matrix: Sparse.MulVec length mismatch")
	}
	out := make([]float64, s.n)
	for _, k := range s.sortedKeys() {
		i, j := int(k/int64(s.n)), int(k%int64(s.n))
		out[i] += s.entries[k] * x[j]
	}
	return out
}

// IsStructurallySymmetric reports whether every stored (i,j) has a stored
// (j,i) counterpart (values may differ).
func (s *Sparse) IsStructurallySymmetric() bool {
	for k := range s.entries {
		i, j := int(k/int64(s.n)), int(k%int64(s.n))
		if i == j {
			continue
		}
		if _, ok := s.entries[s.key(j, i)]; !ok {
			return false
		}
	}
	return true
}

// Adjacency returns, for each node, the sorted list of distinct neighbours
// implied by the off-diagonal structure (union of row and column pattern).
func (s *Sparse) Adjacency() [][]int {
	adj := make([]map[int]struct{}, s.n)
	for i := range adj {
		adj[i] = make(map[int]struct{})
	}
	for k := range s.entries {
		i, j := int(k/int64(s.n)), int(k%int64(s.n))
		if i == j {
			continue
		}
		adj[i][j] = struct{}{}
		adj[j][i] = struct{}{}
	}
	out := make([][]int, s.n)
	for i, m := range adj {
		lst := make([]int, 0, len(m))
		for j := range m {
			lst = append(lst, j)
		}
		sort.Ints(lst)
		out[i] = lst
	}
	return out
}

// Permuted returns P·A·Pᵀ where perm maps old index → new index.
func (s *Sparse) Permuted(perm []int) *Sparse {
	if len(perm) != s.n {
		panic("matrix: Permuted length mismatch")
	}
	out := NewSparse(s.n)
	for k, v := range s.entries {
		i, j := int(k/int64(s.n)), int(k%int64(s.n))
		out.Add(perm[i], perm[j], v)
	}
	return out
}
