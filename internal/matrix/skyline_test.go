package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randSparseSPD builds a random sparse SPD matrix shaped like an RC ladder
// with a few long-range couplings, which mirrors the matrices the skyline
// solver sees in practice.
func randSparseSPD(rng *rand.Rand, n int) *Sparse {
	s := NewSparse(n)
	for i := 0; i < n; i++ {
		s.Add(i, i, 2+rng.Float64())
	}
	for i := 0; i+1 < n; i++ {
		g := 0.5 + rng.Float64()
		s.AddSym(i, i+1, g)
	}
	for k := 0; k < n/4; k++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i != j {
			s.AddSym(i, j, 0.3*rng.Float64())
		}
	}
	return s
}

func skylineFromSparse(s *Sparse, symmetric bool) *Skyline {
	tmpl := NewSkylineTemplate(s.Adjacency(), symmetric)
	m := tmpl.NewMatrix()
	for _, e := range s.Entries() {
		if symmetric && e.Col > e.Row {
			continue // only lower triangle stored
		}
		m.Add(e.Row, e.Col, e.Val)
	}
	return m
}

func TestSparseAccumulate(t *testing.T) {
	s := NewSparse(3)
	s.Add(0, 1, 2)
	s.Add(0, 1, 3)
	if s.At(0, 1) != 5 {
		t.Errorf("accumulate: got %g, want 5", s.At(0, 1))
	}
	s.AddSym(1, 2, 4)
	if s.At(1, 1) != 4 || s.At(2, 2) != 4 || s.At(1, 2) != -4 || s.At(2, 1) != -4 {
		t.Error("AddSym stamp incorrect")
	}
	// Ground (negative index) stamps only the non-ground diagonal.
	s.AddSym(0, -1, 7)
	if s.At(0, 0) != 7 {
		t.Errorf("ground stamp: got %g, want 7", s.At(0, 0))
	}
}

func TestSparseStructureQueries(t *testing.T) {
	s := NewSparse(4)
	s.AddSym(0, 2, 1)
	s.AddSym(1, 3, 1)
	if !s.IsStructurallySymmetric() {
		t.Error("AddSym result should be structurally symmetric")
	}
	adj := s.Adjacency()
	if len(adj[0]) != 1 || adj[0][0] != 2 {
		t.Errorf("adjacency[0] = %v, want [2]", adj[0])
	}
	s2 := NewSparse(3)
	s2.Add(0, 2, 1)
	if s2.IsStructurallySymmetric() {
		t.Error("one-sided entry reported symmetric")
	}
}

func TestSparseMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := randSparseSPD(rng, 15)
	x := make([]float64, 15)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := s.MulVec(x)
	want := s.Dense().MulVec(x)
	if NormInf(SubVec(got, want)) > 1e-12 {
		t.Error("sparse MulVec disagrees with dense")
	}
}

func TestSparsePermuted(t *testing.T) {
	s := NewSparse(3)
	s.Add(0, 1, 5)
	s.Add(2, 2, 7)
	perm := []int{2, 0, 1} // old→new
	p := s.Permuted(perm)
	if p.At(2, 0) != 5 {
		t.Errorf("permuted (2,0) = %g, want 5", p.At(2, 0))
	}
	if p.At(1, 1) != 7 {
		t.Errorf("permuted (1,1) = %g, want 7", p.At(1, 1))
	}
}

func TestSkylineCholeskyMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 5; trial++ {
		n := 5 + rng.Intn(30)
		s := randSparseSPD(rng, n)
		m := skylineFromSparse(s, true)
		if err := m.FactorCholesky(); err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := m.SolveCholesky(b)
		r := SubVec(s.Dense().MulVec(x), b)
		if NormInf(r) > 1e-9*(1+NormInf(b)) {
			t.Fatalf("trial %d: residual %g", trial, NormInf(r))
		}
	}
}

func TestSkylineTriangularSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	n := 12
	s := randSparseSPD(rng, n)
	m := skylineFromSparse(s, true)
	if err := m.FactorCholesky(); err != nil {
		t.Fatal(err)
	}
	// Build dense L to verify the triangular solves.
	l := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			l.Set(i, j, m.At(i, j)) // post-factor storage holds L
		}
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	y := m.SolveLower(b)
	if NormInf(SubVec(l.MulVec(y), b)) > 1e-9 {
		t.Error("SolveLower residual too large")
	}
	x := m.SolveLowerT(b)
	if NormInf(SubVec(l.T().MulVec(x), b)) > 1e-9 {
		t.Error("SolveLowerT residual too large")
	}
}

func TestSkylineLUMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 5; trial++ {
		n := 5 + rng.Intn(25)
		// Nonsymmetric values over a symmetric pattern, diagonally dominant.
		s := NewSparse(n)
		for i := 0; i < n; i++ {
			s.Add(i, i, 4+rng.Float64())
		}
		for i := 0; i+1 < n; i++ {
			s.Add(i, i+1, rng.NormFloat64())
			s.Add(i+1, i, rng.NormFloat64())
		}
		for k := 0; k < n/3; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			s.Add(i, j, 0.3*rng.NormFloat64())
			s.Add(j, i, 0.3*rng.NormFloat64())
		}
		m := skylineFromSparse(s, false)
		if err := m.FactorLU(); err != nil {
			t.Fatal(err)
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := m.SolveLU(b)
		r := SubVec(s.Dense().MulVec(x), b)
		if NormInf(r) > 1e-9*(1+NormInf(b)) {
			t.Fatalf("trial %d: LU residual %g", trial, NormInf(r))
		}
	}
}

func TestSkylineMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s := randSparseSPD(rng, 10)
	msym := skylineFromSparse(s, true)
	x := make([]float64, 10)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := msym.MulVec(x)
	want := s.Dense().MulVec(x)
	if NormInf(SubVec(got, want)) > 1e-12 {
		t.Error("symmetric skyline MulVec mismatch")
	}
	mgen := skylineFromSparse(s, false)
	got = mgen.MulVec(x)
	if NormInf(SubVec(got, want)) > 1e-12 {
		t.Error("general skyline MulVec mismatch")
	}
}

func TestSkylineClearAndRefactor(t *testing.T) {
	s := NewSparse(3)
	s.Add(0, 0, 2)
	s.Add(1, 1, 2)
	s.Add(2, 2, 2)
	s.AddSym(0, 1, 1)
	m := skylineFromSparse(s, false)
	if err := m.FactorLU(); err != nil {
		t.Fatal(err)
	}
	if err := m.FactorLU(); err == nil {
		t.Error("double factor should fail")
	}
	m.Clear()
	m.Add(0, 0, 1)
	m.Add(1, 1, 1)
	m.Add(2, 2, 1)
	if err := m.FactorLU(); err != nil {
		t.Fatalf("refactor after Clear: %v", err)
	}
	x := m.SolveLU([]float64{3, 4, 5})
	for i, want := range []float64{3, 4, 5} {
		if !almostEq(x[i], want, 1e-12) {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want)
		}
	}
}

func TestRCMIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		s := randSparseSPD(rng, n)
		perm := RCM(s.Adjacency())
		seen := make([]bool, n)
		for _, p := range perm {
			if p < 0 || p >= n || seen[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRCMReducesProfile(t *testing.T) {
	// An arrowhead-ish matrix where node n-1 couples to everything benefits
	// from reordering; RCM must not increase profile on a long ladder with
	// one bad coupling.
	n := 60
	s := NewSparse(n)
	for i := 0; i < n; i++ {
		s.Add(i, i, 1)
	}
	// Chain plus a hub node 0 connected to many high-index nodes.
	for i := 0; i+1 < n; i++ {
		s.AddSym(i, i+1, 1)
	}
	for j := n / 2; j < n; j += 5 {
		s.AddSym(0, j, 1)
	}
	adj := s.Adjacency()
	before := Profile(adj)
	perm := RCM(adj)
	permAdj := s.Permuted(perm).Adjacency()
	after := Profile(permAdj)
	if after > before {
		t.Errorf("RCM increased profile: %d -> %d", before, after)
	}
}

func TestSkylineOutOfProfilePanics(t *testing.T) {
	s := NewSparse(3)
	s.Add(0, 0, 1)
	s.Add(1, 1, 1)
	s.Add(2, 2, 1)
	m := skylineFromSparse(s, false) // diagonal profile only
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-profile stamp")
		}
	}()
	m.Add(2, 0, 1)
}

func TestSkylineSolveIdentity(t *testing.T) {
	// Sanity on a 1x1 and on identity systems.
	s := NewSparse(1)
	s.Add(0, 0, 4)
	m := skylineFromSparse(s, true)
	if err := m.FactorCholesky(); err != nil {
		t.Fatal(err)
	}
	x := m.SolveCholesky([]float64{8})
	if math.Abs(x[0]-2) > 1e-14 {
		t.Errorf("1x1 solve: got %g, want 2", x[0])
	}
}
