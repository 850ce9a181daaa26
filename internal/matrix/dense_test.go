package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func randDense(rng *rand.Rand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

// randSPD returns a random symmetric positive definite matrix.
func randSPD(rng *rand.Rand, n int) *Dense {
	b := randDense(rng, n, n)
	a := b.T().Mul(b)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n)) // boost the diagonal for conditioning
	}
	return a
}

func TestDenseBasicOps(t *testing.T) {
	m := NewDenseFromRows([][]float64{{1, 2}, {3, 4}})
	if m.Rows() != 2 || m.Cols() != 2 {
		t.Fatalf("dims: got %dx%d", m.Rows(), m.Cols())
	}
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %g, want 3", m.At(1, 0))
	}
	m.Add(1, 0, 2)
	if m.At(1, 0) != 5 {
		t.Errorf("Add: got %g, want 5", m.At(1, 0))
	}
	tr := m.T()
	if tr.At(0, 1) != 5 {
		t.Errorf("T: got %g, want 5", tr.At(0, 1))
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Error("Clone is not a deep copy")
	}
}

func TestDenseMul(t *testing.T) {
	a := NewDenseFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := NewDenseFromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	p := a.Mul(b)
	want := NewDenseFromRows([][]float64{{58, 64}, {139, 154}})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if p.At(i, j) != want.At(i, j) {
				t.Errorf("Mul(%d,%d) = %g, want %g", i, j, p.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestDenseMulVecAndT(t *testing.T) {
	a := NewDenseFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	y := a.MulVec([]float64{1, -1})
	want := []float64{-1, -1, -1}
	for i := range want {
		if y[i] != want[i] {
			t.Errorf("MulVec[%d] = %g, want %g", i, y[i], want[i])
		}
	}
	z := a.MulVecT([]float64{1, 0, -1})
	wantT := []float64{-4, -4}
	for i := range wantT {
		if z[i] != wantT[i] {
			t.Errorf("MulVecT[%d] = %g, want %g", i, z[i], wantT[i])
		}
	}
}

func TestIdentityAndSymmetry(t *testing.T) {
	id := Identity(4)
	if !id.IsSymmetric(0) {
		t.Error("identity not symmetric")
	}
	a := NewDenseFromRows([][]float64{{1, 2}, {2.0000001, 1}})
	if a.IsSymmetric(1e-9) {
		t.Error("asymmetric matrix reported symmetric at tight tol")
	}
	if !a.IsSymmetric(1e-3) {
		t.Error("nearly symmetric matrix rejected at loose tol")
	}
}

func TestLUSolveKnown(t *testing.T) {
	a := NewDenseFromRows([][]float64{
		{2, 1, 1},
		{4, -6, 0},
		{-2, 7, 2},
	})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatalf("FactorLU: %v", err)
	}
	x, err := f.Solve([]float64{5, -2, 9})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := []float64{1, 1, 2}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-12) {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestLUSingular(t *testing.T) {
	a := NewDenseFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := FactorLU(a); err == nil {
		t.Error("expected singular error")
	}
}

func TestLUDeterminant(t *testing.T) {
	a := NewDenseFromRows([][]float64{{3, 0}, {0, 4}})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Det(), 12, 1e-12) {
		t.Errorf("det = %g, want 12", f.Det())
	}
}

// Property: for random well-conditioned systems, LU solve residual is tiny.
func TestLUSolveResidualProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		a := randDense(rng, n, n)
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(2*n)) // diagonally dominant => well conditioned
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		lu, err := FactorLU(a)
		if err != nil {
			return false
		}
		x, err := lu.Solve(b)
		if err != nil {
			return false
		}
		r := SubVec(a.MulVec(x), b)
		return NormInf(r) < 1e-9*(1+NormInf(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestVectorOps(t *testing.T) {
	x := []float64{3, 4}
	if Norm2(x) != 5 {
		t.Errorf("Norm2 = %g, want 5", Norm2(x))
	}
	if NormInf(x) != 4 {
		t.Errorf("NormInf = %g, want 4", NormInf(x))
	}
	if Dot(x, []float64{1, 1}) != 7 {
		t.Errorf("Dot = %g, want 7", Dot(x, []float64{1, 1}))
	}
	y := []float64{1, 1}
	Axpy(2, x, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("Axpy: got %v", y)
	}
	s := SubVec([]float64{5, 5}, []float64{2, 3})
	if s[0] != 3 || s[1] != 2 {
		t.Errorf("SubVec: got %v", s)
	}
	a := AddVec([]float64{5, 5}, []float64{2, 3})
	if a[0] != 7 || a[1] != 8 {
		t.Errorf("AddVec: got %v", a)
	}
}

func TestNorm2Overflow(t *testing.T) {
	// Norm2 must not overflow for huge components.
	x := []float64{1e200, 1e200}
	got := Norm2(x)
	want := math.Sqrt2 * 1e200
	if !almostEq(got, want, 1e-12) {
		t.Errorf("Norm2 overflow-guard: got %g, want %g", got, want)
	}
}
