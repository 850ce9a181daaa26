package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// randomSparse builds a random n×n accumulator with roughly density·n² entries
// (duplicate adds included, exercising the summing path).
func randomSparse(rng *rand.Rand, n int, density float64) *Sparse {
	s := NewSparse(n)
	m := int(density * float64(n) * float64(n))
	if m < 1 {
		m = 1
	}
	for k := 0; k < m; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		s.Add(i, j, rng.NormFloat64())
	}
	return s
}

// TestCSRMatchesSparse checks, on randomized matrices, that the compiled CSR
// form is observationally identical to the accumulator it came from: the same
// entries in the same (row, col) order, bit-identical MulVec results (both
// iterate in sorted row-major order, so even the floating-point summation
// order matches), and agreeing At/NNZ/structure queries.
func TestCSRMatchesSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		s := randomSparse(rng, n, 0.15)
		c := s.Compile()

		if c.Size() != s.Size() || c.NNZ() != s.NNZ() {
			t.Fatalf("trial %d: size/nnz mismatch: CSR (%d,%d) vs Sparse (%d,%d)",
				trial, c.Size(), c.NNZ(), s.Size(), s.NNZ())
		}
		se, ce := s.Entries(), c.Entries()
		if len(se) != len(ce) {
			t.Fatalf("trial %d: entry count %d vs %d", trial, len(ce), len(se))
		}
		for k := range se {
			if se[k] != ce[k] {
				t.Fatalf("trial %d: entry %d differs: CSR %+v vs Sparse %+v", trial, k, ce[k], se[k])
			}
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ys, yc := s.MulVec(x), c.MulVec(x)
		for i := range ys {
			if ys[i] != yc[i] {
				t.Fatalf("trial %d: MulVec[%d] = %g (CSR) vs %g (Sparse), diff %g",
					trial, i, yc[i], ys[i], yc[i]-ys[i])
			}
		}
		for probe := 0; probe < 20; probe++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if c.At(i, j) != s.At(i, j) {
				t.Fatalf("trial %d: At(%d,%d) = %g vs %g", trial, i, j, c.At(i, j), s.At(i, j))
			}
		}
		if c.IsStructurallySymmetric() != s.IsStructurallySymmetric() {
			t.Fatalf("trial %d: structural symmetry disagrees", trial)
		}
	}
}

// TestCSRMatchesSparseNonFinite extends the bit-identity property to
// non-finite inputs: vectors carrying ±0, ±Inf and NaN, and matrices with
// stored explicit zeros (cancelled accumulations) and non-finite entries.
// Both kernels iterate the stored entries in the same sorted row-major
// order, so every finite, signed-zero and infinite result must land on an
// identical bit pattern. A NaN result must be NaN in both, but its payload
// and sign are not compared: Go leaves them unspecified, and on amd64 an add
// of two NaNs keeps the payload of whichever operand the compiler placed
// first — an order that differs between a normal and a -race build of the
// same source. Reports print every NaN as "NaN", so no output depends on the
// payload. This pins the CSR history product of the direct-MNA path as
// equal to the map-backed reference regardless of how far an iterate has
// diverged.
func TestCSRMatchesSparseNonFinite(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		1.5, -2.25, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(30)
		s := randomSparse(rng, n, 0.15)
		// Stored explicit zeros: accumulate +v then −v on the same slot.
		for k := 0; k < 1+n/4; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			v := 1 + rng.Float64()
			s.Add(i, j, v)
			s.Add(i, j, -v)
		}
		// A few non-finite and signed-zero matrix entries.
		for k := 0; k < 1+n/4; k++ {
			s.Add(rng.Intn(n), rng.Intn(n), specials[rng.Intn(len(specials))])
		}
		c := s.Compile()

		x := make([]float64, n)
		for i := range x {
			if rng.Intn(2) == 0 {
				x[i] = specials[rng.Intn(len(specials))]
			} else {
				x[i] = rng.NormFloat64()
			}
		}
		ys := s.MulVec(x)
		yc := make([]float64, n)
		c.MulVecTo(yc, x)
		for i := range ys {
			if math.IsNaN(ys[i]) && math.IsNaN(yc[i]) {
				continue
			}
			if math.Float64bits(ys[i]) != math.Float64bits(yc[i]) {
				t.Fatalf("trial %d: MulVec[%d] bits differ: CSR %x (%g) vs Sparse %x (%g)",
					trial, i, math.Float64bits(yc[i]), yc[i], math.Float64bits(ys[i]), ys[i])
			}
		}
	}
}

// TestCSRAdjacencyPermutedMatchSparse checks the graph-side operations used by
// the RCM reordering pipeline against the reference Sparse implementations.
func TestCSRAdjacencyPermutedMatchSparse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(30)
		s := randomSparse(rng, n, 0.12)
		c := s.Compile()

		sa, ca := s.Adjacency(), c.Adjacency()
		for i := range sa {
			if len(sa[i]) != len(ca[i]) {
				t.Fatalf("trial %d: node %d degree %d vs %d", trial, i, len(ca[i]), len(sa[i]))
			}
			for k := range sa[i] {
				if sa[i][k] != ca[i][k] {
					t.Fatalf("trial %d: node %d neighbour %d: %d vs %d", trial, i, k, ca[i][k], sa[i][k])
				}
			}
		}

		perm := rng.Perm(n)
		sp, cp := s.Permuted(perm).Entries(), c.Permuted(perm).Entries()
		if len(sp) != len(cp) {
			t.Fatalf("trial %d: permuted entry count %d vs %d", trial, len(cp), len(sp))
		}
		for k := range sp {
			if sp[k] != cp[k] {
				t.Fatalf("trial %d: permuted entry %d: %+v vs %+v", trial, k, cp[k], sp[k])
			}
		}
	}
}

// TestCSRForEachOrder checks that ForEach visits exactly the Entries sequence.
func TestCSRForEachOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s := randomSparse(rng, 25, 0.2)
	c := s.Compile()
	want := c.Entries()
	k := 0
	c.ForEach(func(i, j int, v float64) {
		if k >= len(want) || want[k] != (Coord{Row: i, Col: j, Val: v}) {
			t.Fatalf("ForEach visit %d = (%d,%d,%g), want %+v", k, i, j, v, want[k])
		}
		k++
	})
	if k != len(want) {
		t.Fatalf("ForEach visited %d entries, want %d", k, len(want))
	}
}

// TestSolveLUInPlace checks the scratch-friendly combined factor+solve against
// the reference FactorLU/Solve pair: the two run the identical elimination
// and substitution sequence, so the results must be bit-identical.
func TestSolveLUInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(12)
		a := NewDense(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Add(i, i, float64(n)) // diagonally dominant enough to be regular
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}

		lu, err := FactorLU(a.Clone())
		if err != nil {
			t.Fatalf("trial %d: FactorLU: %v", trial, err)
		}
		want, err := lu.Solve(append([]float64(nil), b...))
		if err != nil {
			t.Fatalf("trial %d: Solve: %v", trial, err)
		}

		got := append([]float64(nil), b...)
		piv := make([]int, n)
		if err := SolveLUInPlace(a.Clone().data, n, piv, got); err != nil {
			t.Fatalf("trial %d: SolveLUInPlace: %v", trial, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: x[%d] = %g, want %g (diff %g)",
					trial, i, got[i], want[i], math.Abs(got[i]-want[i]))
			}
		}
	}
}

// BenchmarkSparseMulVec contrasts the map-backed COO accumulator with its
// compiled CSR snapshot on the matrix-vector kernel that dominates the
// Lanczos and transient inner loops.
func BenchmarkSparseMulVec(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 400
	s := randomSparse(rng, n, 0.02)
	c := s.Compile()
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.Run("map-coo", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = s.MulVec(x)
		}
	})
	b.Run("csr", func(b *testing.B) {
		dst := make([]float64, n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.MulVecTo(dst, x)
		}
	})
}
