// Direct (unreduced) MNA transient integration — the last rung of the
// chip-level fallback ladder before a cluster is declared unverified.
//
// When SyMPVL reduction breaks down (indefinite G after roundoff, a
// pathological port structure that defeats the block Lanczos process, or a
// reduced model whose termination fold-in is not SPD), the cluster can still
// be verified by integrating the full MNA system
//
//	G·v + C·dv/dt = B·i(t)
//
// directly with the same trapezoidal scheme and the same terminations as the
// reduced flow. The constant part of the Jacobian, K = (2/Δt)·C + G + Σ g_j·
// e_j·e_jᵀ, is LU-factored once; each Newton step then costs one cached
// solve plus a small Woodbury core over the nonlinear ports, exactly
// mirroring the diagonal-plus-rank-k structure of the reduced solver. This
// is O(n³) once and O(n²) per step — far slower than the reduced model, but
// robust, and only ever run on the rare cluster that defeated reduction.
package romsim

import (
	"fmt"
	"math"

	"xtverify/internal/matrix"
	"xtverify/internal/mna"
	"xtverify/internal/obs"
	"xtverify/internal/waveform"
)

// SimulateDirect runs a transient analysis of the unreduced MNA system with
// the given port terminations (len(terms) must equal sys.P). The result is
// indexed like the system's ports, so callers can swap it in wherever a
// reduced-model Simulate result is expected.
func SimulateDirect(sys *mna.System, terms []Termination, opt Options) (*Result, error) {
	if len(terms) != sys.P {
		return nil, fmt.Errorf("romsim: %d terminations for %d ports", len(terms), sys.P)
	}
	if opt.TEnd <= 0 {
		return nil, fmt.Errorf("romsim: TEnd must be positive")
	}
	dt := opt.Dt
	if dt <= 0 {
		dt = opt.TEnd / 1000
	}
	n := sys.N

	var linPorts, nlPorts []int
	for j, tm := range terms {
		if tm.Linear != nil && tm.Dev != nil {
			return nil, fmt.Errorf("romsim: port %d has both linear and nonlinear terminations", j)
		}
		if tm.Linear != nil {
			if tm.Linear.G < 0 {
				return nil, fmt.Errorf("romsim: port %d has negative conductance", j)
			}
			linPorts = append(linPorts, j)
		}
		if tm.Dev != nil {
			nlPorts = append(nlPorts, j)
		}
	}
	nNL := len(nlPorts)

	gd := sys.G.Dense()
	cd := sys.C.Dense()
	// K_dc = G + Σ_lin g_j·e_j·e_jᵀ (a=0), K_tr = K_dc + a·C with a = 2/Δt.
	kdc := gd.Clone()
	for _, j := range linPorts {
		node := sys.PortNodes[j]
		kdc.Add(node, node, terms[j].Linear.G)
	}
	a := 2 / dt
	ktr := kdc.Clone()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if c := cd.At(i, j); c != 0 {
				ktr.Add(i, j, a*c)
			}
		}
	}
	luTR, err := matrix.FactorLU(ktr)
	if err != nil {
		return nil, fmt.Errorf("%w: transient system matrix singular: %v", ErrUnstableModel, err)
	}

	// Precompute K⁻¹·e_{node(k)} per nonlinear port for the Woodbury solve.
	kinvCols := func(lu *matrix.LU) ([][]float64, error) {
		cols := make([][]float64, nNL)
		for c, j := range nlPorts {
			e := make([]float64, n)
			e[sys.PortNodes[j]] = 1
			w, err := lu.Solve(e)
			if err != nil {
				return nil, err
			}
			cols[c] = w
		}
		return cols, nil
	}
	wTR, err := kinvCols(luTR)
	if err != nil {
		return nil, fmt.Errorf("romsim: direct solve: %w", err)
	}

	// Per-step and per-iteration scratch, allocated once for the whole run:
	// the Newton residual, the cached-LU solve target, the Woodbury core and
	// its pivot/RHS buffers, the trapezoidal history, and the forcing vector.
	scr := struct {
		r, x0, s, rhs []float64
		piv           []int
		core          []float64 // nNL×nNL Woodbury core, row-major
		hist, base, f []float64
	}{
		r:    make([]float64, n),
		x0:   make([]float64, n),
		s:    make([]float64, nNL),
		rhs:  make([]float64, nNL),
		piv:  make([]int, nNL),
		core: make([]float64, nNL*nNL),
		hist: make([]float64, n),
		base: make([]float64, n),
		f:    make([]float64, n),
	}

	// newtonSolve solves (K + Σ s_k·e_k·e_kᵀ)·x = r with the cached LU of K
	// via the Woodbury identity over the nonlinear port nodes. The returned
	// slice aliases scratch and is only valid until the next call.
	woodburySolves := 0
	newtonSolve := func(lu *matrix.LU, w [][]float64, s, r []float64) ([]float64, error) {
		x0 := scr.x0
		if err := lu.SolveTo(x0, r); err != nil {
			return nil, err
		}
		if nNL == 0 {
			return x0, nil
		}
		woodburySolves++
		core, rhs := scr.core, scr.rhs
		for c, jc := range nlPorts {
			node := sys.PortNodes[jc]
			row := core[c*nNL : (c+1)*nNL]
			for b := range row {
				id := 0.0
				if c == b {
					id = 1
				}
				row[b] = id + s[c]*w[b][node]
			}
			rhs[c] = s[c] * x0[node]
		}
		if err := matrix.SolveLUInPlace(core, nNL, scr.piv, rhs); err != nil {
			return nil, fmt.Errorf("romsim: Woodbury core singular: %w", err)
		}
		for c := range nlPorts {
			matrix.Axpy(-rhs[c], w[c], x0)
		}
		return x0, nil
	}

	// residualInto computes F(v) = K·v − base − Σ_nl e_k·i_k(v_k, t) into r
	// and the s = −di/dv Jacobian factors into s.
	residualInto := func(r, s []float64, k *matrix.Dense, base, v []float64, t float64) {
		k.MulVecTo(r, v)
		for i := range r {
			r[i] -= base[i]
		}
		for c, j := range nlPorts {
			node := sys.PortNodes[j]
			i, di := terms[j].Dev.Current(v[node], t)
			r[node] -= i
			s[c] = -di
		}
	}

	totalNewton := 0
	// newtonLoop drives vout (seeded from v0) to F(vout)=0. vout must not
	// alias v0.
	newtonLoop := func(k *matrix.Dense, lu *matrix.LU, w [][]float64, base, v0, vout []float64, t float64) error {
		copy(vout, v0)
		for it := 0; it < maxNewton; it++ {
			totalNewton++
			residualInto(scr.r, scr.s, k, base, vout, t)
			dv, err := newtonSolve(lu, w, scr.s, scr.r)
			if err != nil {
				return err
			}
			matrix.Axpy(-1, dv, vout)
			if matrix.NormInf(dv) < newtonTol {
				return nil
			}
		}
		opt.Trace.Add(obs.CtrNewtonDivergences, 1)
		return fmt.Errorf("%w at t=%g", ErrNewtonDiverged, t)
	}
	// Post the iteration counters exactly once, error returns included.
	defer func() {
		opt.Trace.Add(obs.CtrNewtonIterations, int64(totalNewton))
		opt.Trace.Add(obs.CtrWoodburySolves, int64(woodburySolves))
	}()

	// Forcing from linear Thevenin sources at time t.
	forceInto := func(f []float64, t float64) {
		for i := range f {
			f[i] = 0
		}
		for _, j := range linPorts {
			lt := terms[j].Linear
			f[sys.PortNodes[j]] += lt.G * lt.Vs(t)
		}
	}

	// DC operating point with the a=0 matrix.
	v := make([]float64, n)
	vnext := make([]float64, n)
	luDC, err := matrix.FactorLU(kdc)
	if err != nil {
		return nil, fmt.Errorf("%w: DC system matrix singular: %v", ErrUnstableModel, err)
	}
	wDC, err := kinvCols(luDC)
	if err != nil {
		return nil, fmt.Errorf("romsim: direct DC solve: %w", err)
	}
	forceInto(scr.f, 0)
	if err := newtonLoop(kdc, luDC, wDC, scr.f, v, vnext, 0); err != nil {
		return nil, fmt.Errorf("romsim: DC init: %w", err)
	}
	v, vnext = vnext, v
	vdot := make([]float64, n)

	nSteps := int(math.Round(opt.TEnd / dt))
	if nSteps < 1 {
		nSteps = 1
	}
	res := &Result{Ports: make([]*waveform.Waveform, sys.P)}
	for j := range res.Ports {
		res.Ports[j] = waveform.New(nSteps + 1)
		res.Ports[j].Append(0, v[sys.PortNodes[j]])
	}

	transSpan := opt.Trace.Start(obs.PhaseTransient)
	defer transSpan.End()
	for step := 1; step <= nSteps; step++ {
		if opt.Check != nil {
			if err := opt.Check(); err != nil {
				return nil, err
			}
		}
		t := float64(step) * dt
		// Trapezoidal: (a·C + G')·v_{n+1} = C·(a·v_n + v̇_n) + f(t) + B_nl·i.
		// The history product uses the compiled CSR form of C — O(nnz), not
		// the O(n²) dense sweep — and its sparse semantics are canonical:
		// both the CSR and the map-backed Sparse kernels iterate the stored
		// entries in identical sorted row-major order and agree bit-for-bit,
		// non-finite inputs included (pinned by TestCSRMatchesSparse). A
		// structural zero contributes exactly nothing; a diverging iterate
		// can therefore never smuggle 0·±Inf = NaN terms through absent
		// entries, and the guard below rejects non-finite states outright.
		hist, base := scr.hist, scr.base
		for i := 0; i < n; i++ {
			hist[i] = a*v[i] + vdot[i]
		}
		sys.C.MulVecTo(base, hist)
		forceInto(scr.f, t)
		matrix.Axpy(1, scr.f, base)
		if err := newtonLoop(ktr, luTR, wTR, base, v, vnext, t); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			if !isFinite(vnext[i]) {
				opt.Trace.Add(obs.CtrNewtonDivergences, 1)
				return nil, fmt.Errorf("%w: non-finite state at t=%g", ErrNewtonDiverged, t)
			}
			vdot[i] = a*(vnext[i]-v[i]) - vdot[i]
		}
		v, vnext = vnext, v
		for j := range res.Ports {
			res.Ports[j].Append(t, v[sys.PortNodes[j]])
		}
		res.Steps++
	}
	res.NewtonIterations = totalNewton
	return res, nil
}

// isFinite reports whether f is neither NaN nor ±Inf.
func isFinite(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0)
}
