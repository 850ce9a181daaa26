package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCholeskyKnown(t *testing.T) {
	a := NewDenseFromRows([][]float64{
		{4, 2, 0},
		{2, 5, 2},
		{0, 2, 5},
	})
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := c.L()
	// Reconstruct A = L·Lᵀ.
	rec := l.Mul(l.T())
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if !almostEq(rec.At(i, j), a.At(i, j), 1e-12) {
				t.Errorf("LLᵀ(%d,%d) = %g, want %g", i, j, rec.At(i, j), a.At(i, j))
			}
		}
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	a := randSPD(rng, 8)
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, 8)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := c.Solve(b)
	r := SubVec(a.MulVec(x), b)
	if NormInf(r) > 1e-9 {
		t.Errorf("residual %g too large", NormInf(r))
	}
}

func TestCholeskyNotPD(t *testing.T) {
	a := NewDenseFromRows([][]float64{{1, 2}, {2, 1}}) // indefinite
	if _, err := FactorCholesky(a); err == nil {
		t.Error("expected not-positive-definite error")
	}
}

func TestCholeskyTriangularSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randSPD(rng, 6)
	c, err := FactorCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l := c.L()
	b := make([]float64, 6)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	y := c.SolveLower(b)
	if NormInf(SubVec(l.MulVec(y), b)) > 1e-10 {
		t.Error("SolveLower residual too large")
	}
	x := c.SolveUpper(b)
	if NormInf(SubVec(l.T().MulVec(x), b)) > 1e-10 {
		t.Error("SolveUpper residual too large")
	}
}

func TestEigenSymKnown(t *testing.T) {
	// Eigenvalues of [[2,1],[1,2]] are 1 and 3.
	a := NewDenseFromRows([][]float64{{2, 1}, {1, 2}})
	w, v, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(w[0], 1, 1e-12) || !almostEq(w[1], 3, 1e-12) {
		t.Errorf("eigenvalues %v, want [1 3]", w)
	}
	// Check A·v = w·v for each column.
	for j := 0; j < 2; j++ {
		av := a.MulVec(v.Col(j))
		for i := 0; i < 2; i++ {
			if !almostEq(av[i], w[j]*v.At(i, j), 1e-10) {
				t.Errorf("eigenvector %d residual at row %d", j, i)
			}
		}
	}
}

func TestEigenSymReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		n := 3 + rng.Intn(15)
		a := randSPD(rng, n)
		w, v, err := EigenSym(a)
		if err != nil {
			t.Fatal(err)
		}
		// Ascending order.
		for i := 1; i < n; i++ {
			if w[i] < w[i-1] {
				t.Fatalf("eigenvalues not ascending: %v", w)
			}
		}
		// Orthonormality: VᵀV = I.
		vtv := v.T().Mul(v)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				want := 0.0
				if i == j {
					want = 1
				}
				if math.Abs(vtv.At(i, j)-want) > 1e-9 {
					t.Fatalf("VᵀV(%d,%d) = %g", i, j, vtv.At(i, j))
				}
			}
		}
		// Reconstruction: V·diag(w)·Vᵀ = A.
		d := NewDense(n, n)
		for i := 0; i < n; i++ {
			d.Set(i, i, w[i])
		}
		rec := v.Mul(d).Mul(v.T())
		if rec.SubMat(a).MaxAbs() > 1e-8*a.MaxAbs() {
			t.Fatalf("reconstruction error %g", rec.SubMat(a).MaxAbs())
		}
	}
}

// Property: eigenvalues of an SPD matrix are all positive and their sum
// equals the trace.
func TestEigenSPDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		a := randSPD(rng, n)
		w, _, err := EigenSym(a)
		if err != nil {
			return false
		}
		sum, trace := 0.0, 0.0
		for i := 0; i < n; i++ {
			if w[i] <= 0 {
				return false
			}
			sum += w[i]
			trace += a.At(i, i)
		}
		return almostEq(sum, trace, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// orthonormalizeDense runs OrthonormalizeColumns on a copy of a's columns and
// returns the kept block Q (m×rank) with its rank.
func orthonormalizeDense(a *Dense, tol float64) (*Dense, int) {
	cols := make([][]float64, a.Cols())
	for j := range cols {
		cols[j] = a.Col(j)
	}
	rank := OrthonormalizeColumns(cols, tol)
	q := NewDense(a.Rows(), rank)
	for j := 0; j < rank; j++ {
		q.SetCol(j, cols[j])
	}
	return q, rank
}

// checkOrthonormalBasis asserts QᵀQ = I and that Q spans a: the projection
// Q·(Qᵀa) reproduces a.
func checkOrthonormalBasis(t *testing.T, q, a *Dense, tol float64) {
	t.Helper()
	qtq := q.T().Mul(q)
	for i := 0; i < q.Cols(); i++ {
		for j := 0; j < q.Cols(); j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(qtq.At(i, j)-want) > tol {
				t.Fatalf("QᵀQ(%d,%d) = %g", i, j, qtq.At(i, j))
			}
		}
	}
	rec := q.Mul(q.T().Mul(a))
	if rec.SubMat(a).MaxAbs() > tol {
		t.Fatalf("Q·Qᵀ·A reconstruction error %g", rec.SubMat(a).MaxAbs())
	}
}

func TestOrthonormalizeColumnsFullRank(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := randDense(rng, 12, 3)
	q, rank := orthonormalizeDense(a, 1e-12)
	if rank != 3 {
		t.Fatalf("rank = %d, want 3", rank)
	}
	checkOrthonormalBasis(t, q, a, 1e-10)
}

func TestOrthonormalizeColumnsDeflation(t *testing.T) {
	// Second column is a linear combination of the first and third: rank
	// must be 2, and the dependent column's slot must be compacted away.
	a := NewDense(6, 3)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 6; i++ {
		a.Set(i, 0, rng.NormFloat64())
		a.Set(i, 2, rng.NormFloat64())
		a.Set(i, 1, 2*a.At(i, 0)-3*a.At(i, 2))
	}
	q, rank := orthonormalizeDense(a, 1e-10)
	if rank != 2 {
		t.Fatalf("rank = %d, want 2", rank)
	}
	checkOrthonormalBasis(t, q, a, 1e-9)
}

func TestOrthonormalizeColumnsZero(t *testing.T) {
	a := NewDense(5, 2) // all-zero block
	if _, rank := orthonormalizeDense(a, 1e-12); rank != 0 {
		t.Fatalf("rank of zero block = %d, want 0", rank)
	}
}
