// Package sympvl implements the symmetric matrix-Padé via Lanczos (SyMPVL)
// reduced-order modeling algorithm of Freund and Feldmann for multi-port RC
// interconnect, as used in the paper's Section 3.
//
// Starting from the MNA description G·v + C·dv/dt = B·i with G, C symmetric
// positive (semi)definite, the algorithm:
//
//  1. factors G = Fᵀ·F by (skyline) Cholesky with RCM preordering,
//  2. changes variables x = F·v to obtain x + A·dx/dt = L·i with
//     A = F⁻ᵀ·C·F⁻¹ and L = F⁻ᵀ·B,
//  3. runs a block Lanczos process (with full reorthogonalization and
//     rank-revealing deflation) on A started from L, and
//  4. projects: T = Vᵀ·A·V, ρ = Vᵀ·L.
//
// The reduced system x̂ + T·dx̂/dt = ρ·i reproduces the first ⌊q/p⌋ block
// moments of the port impedance matrix Z(s) = Bᵀ(G+sC)⁻¹B (matrix-Padé
// property), and because T is symmetric positive semidefinite the reduced
// model is stable and passive by construction.
package sympvl

import (
	"errors"
	"fmt"
	"math"

	"xtverify/internal/matrix"
	"xtverify/internal/mna"
	"xtverify/internal/obs"
)

// DeflationTol is the relative tolerance below which a candidate Lanczos
// vector is declared linearly dependent and deflated.
const DeflationTol = 1e-10

// Typed breakdown reasons. Callers (the chip-level fallback ladder in
// particular) match these with errors.Is to decide whether a retry with
// Gmin regularization or a direct MNA transient can still save the cluster.
var (
	// ErrNotSPD reports that the Cholesky factorization of G broke down:
	// the conductance matrix is not (numerically) positive definite.
	ErrNotSPD = errors.New("sympvl: G is not positive definite")
	// ErrEmptySystem reports a degenerate cluster with no nodes or ports.
	ErrEmptySystem = errors.New("sympvl: empty system")
	// ErrNoPortCoupling reports a zero start block: no port couples into
	// the network, so there is nothing to reduce.
	ErrNoPortCoupling = errors.New("sympvl: start block L is zero — no port couples to the network")
)

// Model is a reduced-order model of a multi-port RC cluster.
//
// The reduced dynamics are x̂ + T·dx̂/dt = Rho·i(t) with port voltages
// v_port = Rhoᵀ·x̂ (paper Eq. 3).
type Model struct {
	// T is the q×q symmetric projection of A.
	T *matrix.Dense
	// Rho is the q×p projection of the start block L.
	Rho *matrix.Dense
	// Order is q, the number of reduced states.
	Order int
	// Ports is p.
	Ports int
	// PortNames mirrors the MNA port naming.
	PortNames []string
	// BlockIterations is the number of completed block Lanczos steps.
	BlockIterations int
	// Deflated counts candidate vectors dropped for linear dependence.
	Deflated int
	// FullRank reports whether the Krylov space was exhausted (the model is
	// then exact up to roundoff).
	Exhausted bool

	// Lazily cached eigendecomposition for frequency-domain evaluation.
	eigVals []float64
	eigH    *matrix.Dense // Qᵀ·Rho
}

// Options tunes the reduction.
type Options struct {
	// Order is the maximum reduced order q. If zero, 4·p is used.
	Order int
	// Check, when non-nil, is polled between block Lanczos iterations;
	// a non-nil return aborts the reduction with that error. Used to
	// honor context cancellation and per-cluster deadlines.
	Check func() error
	// Workspace, when non-nil, supplies reusable scratch buffers so repeated
	// reductions allocate almost nothing. A nil Workspace makes Reduce
	// allocate a private one per call.
	Workspace *Workspace
	// Trace, when non-nil, receives the reduction's counters (block Lanczos
	// iterations). Counting happens here rather than in the caller so that
	// memoized reductions attribute work to whoever actually performed it.
	Trace *obs.Trace
}

// Workspace holds the scratch buffers a reduction needs — the Lanczos basis
// and image arenas, the candidate block, the start-block columns, and the two
// solver temporaries. The chip-level engine reduces thousands of clusters per
// run; handing every Reduce call the same Workspace replaces per-call slice
// churn with a handful of arenas that grow to the largest cluster seen and
// stay there.
//
// A Workspace may be reused across systems of different sizes (buffers are
// re-sized on demand) but must never be shared between concurrent Reduce
// calls.
type Workspace struct {
	n, maxBasis, p int

	tmp1, tmp2 []float64 // applyA solver temporaries

	// Flat backing arenas with [][]float64 column views over them. maxBasis
	// is order+p: the start block is appended without a budget clamp, so the
	// basis can legitimately overshoot order by up to p−1 vectors.
	basisData, aBasisData, candData, lData []float64
	basis, aBasis, cand, lcols             [][]float64
}

// prepare sizes the workspace for an n-node, p-port reduction of maximum
// order q. It is a no-op when the dimensions match the previous call.
func (w *Workspace) prepare(n, order, p int) {
	maxBasis := order + p
	if w.n == n && w.maxBasis == maxBasis && w.p == p {
		return
	}
	w.n, w.maxBasis, w.p = n, maxBasis, p
	w.tmp1 = growFloats(w.tmp1, n)
	w.tmp2 = growFloats(w.tmp2, n)
	w.basisData = growFloats(w.basisData, maxBasis*n)
	w.aBasisData = growFloats(w.aBasisData, maxBasis*n)
	w.candData = growFloats(w.candData, p*n)
	w.lData = growFloats(w.lData, p*n)
	w.basis = columnViews(w.basis, w.basisData, maxBasis, n)
	w.aBasis = columnViews(w.aBasis, w.aBasisData, maxBasis, n)
	w.cand = columnViews(w.cand, w.candData, p, n)
	w.lcols = columnViews(w.lcols, w.lData, p, n)
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

func columnViews(views [][]float64, data []float64, k, n int) [][]float64 {
	if cap(views) < k {
		views = make([][]float64, k)
	}
	views = views[:k]
	for i := range views {
		views[i] = data[i*n : (i+1)*n]
	}
	return views
}

// Reduce builds a reduced-order model of the assembled MNA system.
func Reduce(sys *mna.System, opt Options) (*Model, error) {
	n, p := sys.N, sys.P
	if n == 0 || p == 0 {
		return nil, fmt.Errorf("%w (n=%d, p=%d)", ErrEmptySystem, n, p)
	}
	order := opt.Order
	if order <= 0 {
		order = 4 * p
	}
	if order > n {
		order = n
	}

	ws := opt.Workspace
	if ws == nil {
		ws = &Workspace{}
	}
	ws.prepare(n, order, p)

	// RCM preorder G for a small skyline profile; C and B follow the same
	// permutation so the Lanczos iteration is performed in permuted space.
	// The projected quantities (T, Rho) are invariant to the permutation.
	perm := matrix.RCM(sys.G.Adjacency())
	gp := sys.G.Permuted(perm)
	cp := sys.C.Permuted(perm)

	tmpl := matrix.NewSkylineTemplate(gp.Adjacency(), true)
	gsky := tmpl.NewMatrix()
	gp.ForEach(func(i, j int, v float64) {
		if j > i {
			return
		}
		gsky.Add(i, j, v)
	})
	if err := gsky.FactorCholesky(); err != nil {
		return nil, fmt.Errorf("%w (add Gmin?): %v", ErrNotSPD, err)
	}

	// applyATo computes dst = A·v = L⁻¹·C·L⁻ᵀ·v where G = L·Lᵀ (so F = Lᵀ).
	applyATo := func(dst, v []float64) {
		gsky.SolveLowerTTo(ws.tmp1, v)  // F⁻¹·v
		cp.MulVecTo(ws.tmp2, ws.tmp1)   // C·(F⁻¹ v)
		gsky.SolveLowerTo(dst, ws.tmp2) // F⁻ᵀ·(C F⁻¹ v)
	}

	// Start block Lmat = F⁻ᵀ·B = L⁻¹·B, built straight into the workspace:
	// the permuted right-hand side lands in lcols[j] (perm is a bijection, so
	// every position is written and no zero-fill is needed) and the forward
	// solve runs in place on top of it.
	for j := 0; j < p; j++ {
		lj := ws.lcols[j]
		for i := 0; i < n; i++ {
			lj[perm[i]] = sys.B.At(i, j)
		}
		gsky.SolveLowerTo(lj, lj)
	}

	// Block Lanczos with full reorthogonalization. The basis V and the images
	// A·V accumulate in the workspace arenas so the projection T = Vᵀ(A·V)
	// can be formed exactly.
	deflated := 0
	exhausted := false

	// Orthonormalize the start block (copied so lcols stays intact for the
	// Rho projection at the end).
	for j := 0; j < p; j++ {
		copy(ws.cand[j], ws.lcols[j])
	}
	rank := matrix.OrthonormalizeColumns(ws.cand[:p], DeflationTol)
	deflated += p - rank
	if rank == 0 {
		return nil, ErrNoPortCoupling
	}
	// The current block lives in cand[:curLen]; each iteration copies it into
	// the basis arena, images it, then rebuilds cand as the next candidates.
	curLen := rank
	basisLen := 0
	iters := 0
	for basisLen < order && curLen > 0 {
		if opt.Check != nil {
			if err := opt.Check(); err != nil {
				return nil, err
			}
		}
		iters++
		// Register the current block and apply A to it.
		blockLo := basisLen
		for j := 0; j < curLen; j++ {
			copy(ws.basis[basisLen], ws.cand[j])
			applyATo(ws.aBasis[basisLen], ws.basis[basisLen])
			basisLen++
		}
		if basisLen >= order {
			break
		}
		// Next candidate block: images orthogonalized against everything so
		// far (full reorthogonalization keeps the basis numerically
		// orthonormal, which the projection step relies on).
		for j := 0; j < curLen; j++ {
			copy(ws.cand[j], ws.aBasis[blockLo+j])
		}
		orthoAgainst(ws.cand[:curLen], ws.basis[:basisLen])
		r := matrix.OrthonormalizeColumns(ws.cand[:curLen], DeflationTol)
		deflated += curLen - r
		if r == 0 {
			exhausted = true
			break
		}
		if budget := order - basisLen; r > budget {
			r = budget
		}
		curLen = r
	}

	q := basisLen
	basis, aBasis := ws.basis[:q], ws.aBasis[:q]
	model := &Model{
		T:               matrix.NewDense(q, q),
		Rho:             matrix.NewDense(q, p),
		Order:           q,
		Ports:           p,
		PortNames:       append([]string(nil), sys.PortNames...),
		BlockIterations: iters,
		Deflated:        deflated,
		Exhausted:       exhausted,
	}
	// T = Vᵀ·(A·V), symmetrized to kill roundoff asymmetry.
	for i := 0; i < q; i++ {
		for j := i; j < q; j++ {
			tij := matrix.Dot(basis[i], aBasis[j])
			tji := matrix.Dot(basis[j], aBasis[i])
			v := 0.5 * (tij + tji)
			model.T.Set(i, j, v)
			model.T.Set(j, i, v)
		}
	}
	// Rho = Vᵀ·Lmat.
	for i := 0; i < q; i++ {
		for j := 0; j < p; j++ {
			model.Rho.Set(i, j, matrix.Dot(basis[i], ws.lcols[j]))
		}
	}
	opt.Trace.Add(obs.CtrLanczosIterations, int64(iters))
	return model, nil
}

// orthoAgainst removes from each candidate column its projection onto the
// given orthonormal vectors (two passes), in place.
func orthoAgainst(cand, basis [][]float64) {
	for _, col := range cand {
		for pass := 0; pass < 2; pass++ {
			for _, b := range basis {
				c := matrix.Dot(b, col)
				matrix.Axpy(-c, b, col)
			}
		}
	}
}

// WithPortNames returns a shallow copy of the model with PortNames replaced
// and the lazy eigendecomposition cache cleared. The ROM cache uses it to
// share one reduction between clusters that are structurally identical up to
// net naming: T and Rho are immutable after construction and safe to share,
// while each copy lazily rebuilds its own eigendecomposition so concurrent
// holders never race on the cache fields.
func (m *Model) WithPortNames(names []string) *Model {
	out := *m
	out.PortNames = append([]string(nil), names...)
	out.eigVals = nil
	out.eigH = nil
	return &out
}

// DCImpedance returns the reduced model's DC port impedance matrix
// Z(0) = Rhoᵀ·Rho, which the Padé property makes equal (to roundoff) to the
// exact Bᵀ·G⁻¹·B.
func (m *Model) DCImpedance() *matrix.Dense {
	return m.Rho.T().Mul(m.Rho)
}

// Moment returns the k-th reduced block moment Rhoᵀ·Tᵏ·Rho of the port
// impedance expansion Z(s) = Σ (−s)ᵏ·mₖ.
func (m *Model) Moment(k int) *matrix.Dense {
	acc := m.Rho.Clone()
	for i := 0; i < k; i++ {
		acc = m.T.Mul(acc)
	}
	return m.Rho.T().Mul(acc)
}

// StabilityReport summarizes the reduced model's pole structure.
type StabilityReport struct {
	// Eigenvalues of T in ascending order. Poles of the reduced model are
	// s = −1/λ for λ > 0.
	Eigenvalues []float64
	// Stable is true when no eigenvalue is negative beyond roundoff.
	Stable bool
	// MinEig and MaxEig bound the time-constant range.
	MinEig, MaxEig float64
}

// CheckStability eigen-decomposes T and verifies positive semidefiniteness,
// the structural guarantee of SyMPVL (paper references [3], [4]).
func (m *Model) CheckStability() (*StabilityReport, error) {
	w, _, err := matrix.EigenSym(m.T)
	if err != nil {
		return nil, err
	}
	rep := &StabilityReport{Eigenvalues: w, Stable: true}
	if len(w) > 0 {
		rep.MinEig, rep.MaxEig = w[0], w[len(w)-1]
		tol := 1e-12 * math.Max(1, math.Abs(w[len(w)-1]))
		if w[0] < -tol {
			rep.Stable = false
		}
	}
	return rep, nil
}

// ExactMoments computes the first k exact block moments of the original
// system, mₖ = Bᵀ·G⁻¹·(C·G⁻¹)ᵏ·B, by dense factorization. Intended for
// validation on small systems only.
func ExactMoments(sys *mna.System, k int) ([]*matrix.Dense, error) {
	gd := sys.G.Dense()
	ch, err := matrix.FactorCholesky(gd)
	if err != nil {
		return nil, fmt.Errorf("sympvl: exact moments: %w", err)
	}
	n, p := sys.N, sys.P
	cur := matrix.NewDense(n, p) // G⁻¹·(C·G⁻¹)ᵏ·B column block
	for j := 0; j < p; j++ {
		cur.SetCol(j, ch.Solve(sys.B.Col(j)))
	}
	out := make([]*matrix.Dense, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, sys.B.T().Mul(cur))
		if i == k-1 {
			break
		}
		next := matrix.NewDense(n, p)
		for j := 0; j < p; j++ {
			next.SetCol(j, ch.Solve(sys.C.MulVec(cur.Col(j))))
		}
		cur = next
	}
	return out, nil
}
