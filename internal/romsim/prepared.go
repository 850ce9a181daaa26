package romsim

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"xtverify/internal/matrix"
	"xtverify/internal/obs"
	"xtverify/internal/sympvl"
	"xtverify/internal/waveform"
)

// portKind classifies one port of a prepared conductance pattern.
type portKind uint8

const (
	portOpen portKind = iota
	portLinear
	portDevice
)

// Prepared is the scenario-independent half of a transient analysis: the
// linear-termination fold M = L·Lᵀ, the eigendecomposition to the diagonal
// system D·ẏ + y = η·i, the trapezoidal step coefficients for the fixed Dt,
// the Woodbury step systems, and all per-step/per-Newton scratch. It is
// keyed only by the model and the conductance pattern of the terminations
// (which ports are linear and their G values, which carry devices, which
// are open) — source waveforms and device models stay free, so glitch
// polarities, delay stimuli and repair-candidate sweeps over the same
// cluster all execute against one Prepared.
//
// A Prepared is not safe for concurrent use (it owns the stepping scratch);
// hold one per analysis engine, like a sympvl.Workspace.
type Prepared struct {
	model *sympvl.Model
	q     int // reduced order
	ports int

	// Diagonalized system: D·ẏ + y = η·i.
	dvals   []float64
	etaCols [][]float64

	// Conductance pattern.
	kinds    []portKind
	gs       []float64 // per-port conductance; 0 for non-linear ports
	linPorts []int
	nlPorts  []int
	nlEta    [][]float64 // η columns of the device ports, in nlPorts order

	// Fixed stepping parameters.
	dt, tend  float64
	nSteps    int
	a         float64 // trapezoidal coefficient 2/Dt
	tol       float64
	maxNewton int
	denseNewt bool
	noInitDC  bool

	// Step systems of the two Newton diagonals: Δ = 1 at the DC operating
	// point and Δ = a·D + 1 on every time step.
	dc, tran stepSystem

	scr *simScratch

	// executed counts scenarios run against this Prepared; every scenario
	// after the first is a diagonalization the per-Simulate path would have
	// repeated (the diagonalize_skipped counter).
	executed int
}

// Scenario is one transient run against a Prepared: the concrete
// terminations (whose conductance pattern must match the prepared one) plus
// the per-run cancellation hook and trace.
type Scenario struct {
	// Terms supplies the source waveforms and device models. Linear ports
	// must carry the same G the Prepared was factored with.
	Terms []Termination
	// Check, when non-nil, is polled once per accepted time step for this
	// scenario; a non-nil return fails the scenario with that error.
	Check func() error
	// Trace receives the scenario's transient span and Newton counters.
	Trace *obs.Trace
}

// PatternKey returns a canonical string identifying the conductance pattern
// of the terminations: per port, its kind and (for linear ports) the exact
// bits of its conductance. Two termination sets with equal keys factor to
// the same Prepared; engines use it to memoize Prepare calls.
func PatternKey(terms []Termination) string {
	var b strings.Builder
	b.Grow(len(terms) * 18)
	for _, tm := range terms {
		switch {
		case tm.Linear != nil && tm.Dev != nil:
			b.WriteByte('!') // invalid; Prepare will reject it
		case tm.Linear != nil:
			b.WriteByte('l')
			b.WriteString(strconv.FormatUint(math.Float64bits(tm.Linear.G), 16))
			b.WriteByte('.')
		case tm.Dev != nil:
			b.WriteByte('d')
		default:
			b.WriteByte('o')
		}
	}
	return b.String()
}

// Prepare factors everything about a transient analysis that does not depend
// on the scenario: the termination fold, the diagonalization of paper Eq. 5,
// the Woodbury step systems and scratch, and the trapezoidal coefficients
// for the fixed opt.Dt/opt.TEnd. opt.Trace receives the diagonalize span;
// opt.Check is ignored (checks are per scenario). The returned Prepared
// accepts any scenario whose terminations match the conductance pattern of
// terms.
func Prepare(m *sympvl.Model, terms []Termination, opt Options) (*Prepared, error) {
	if len(terms) != m.Ports {
		return nil, fmt.Errorf("romsim: %d terminations for %d ports", len(terms), m.Ports)
	}
	if opt.TEnd <= 0 {
		return nil, fmt.Errorf("romsim: TEnd must be positive")
	}
	dt := opt.Dt
	if dt <= 0 {
		dt = opt.TEnd / 1000
	}
	q := m.Order

	// Partition ports.
	p := &Prepared{
		model: m, q: q, ports: m.Ports,
		kinds: make([]portKind, m.Ports),
		gs:    make([]float64, m.Ports),
		dt:    dt, tend: opt.TEnd,
		tol: newtonTol, maxNewton: maxNewton,
		denseNewt: opt.DenseNewton,
	}
	for j, tm := range terms {
		if tm.Linear != nil && tm.Dev != nil {
			return nil, fmt.Errorf("romsim: port %d has both linear and nonlinear terminations", j)
		}
		if tm.Linear != nil {
			if tm.Linear.G < 0 {
				return nil, fmt.Errorf("romsim: port %d has negative conductance", j)
			}
			p.kinds[j] = portLinear
			p.gs[j] = tm.Linear.G
			p.linPorts = append(p.linPorts, j)
		}
		if tm.Dev != nil {
			p.kinds[j] = portDevice
			p.nlPorts = append(p.nlPorts, j)
		}
	}

	diagSpan := opt.Trace.Start(obs.PhaseDiagonalize)
	// M = I + Σ g_j ρ_j ρ_jᵀ over linear ports.
	mm := matrix.Identity(q)
	for _, j := range p.linPorts {
		g := p.gs[j]
		col := m.Rho.Col(j)
		for a := 0; a < q; a++ {
			for b := 0; b < q; b++ {
				mm.Add(a, b, g*col[a]*col[b])
			}
		}
	}
	chol, err := matrix.FactorCholesky(mm)
	if err != nil {
		return nil, fmt.Errorf("%w: termination matrix not SPD: %v", ErrUnstableModel, err)
	}
	// T̃ = L⁻¹·T·L⁻ᵀ.
	ttil := matrix.NewDense(q, q)
	for j := 0; j < q; j++ {
		// Column j of T·L⁻ᵀ ... compute L⁻¹ T L⁻ᵀ column by column.
		ej := make([]float64, q)
		ej[j] = 1
		lj := chol.SolveUpper(ej)            // L⁻ᵀ e_j
		tlj := m.T.MulVec(lj)                // T L⁻ᵀ e_j
		ttil.SetCol(j, chol.SolveLower(tlj)) // L⁻¹ T L⁻ᵀ e_j
	}
	// Symmetrize against roundoff and diagonalize.
	for a := 0; a < q; a++ {
		for b := a + 1; b < q; b++ {
			v := 0.5 * (ttil.At(a, b) + ttil.At(b, a))
			ttil.Set(a, b, v)
			ttil.Set(b, a, v)
		}
	}
	dvals, qmat, err := matrix.EigenSym(ttil)
	if err != nil {
		return nil, fmt.Errorf("romsim: diagonalization failed: %w", err)
	}
	// Clamp tiny negative roundoff eigenvalues; the SyMPVL guarantee makes
	// true eigenvalues non-negative.
	for i, d := range dvals {
		if d < 0 {
			if maxd := dvals[len(dvals)-1]; d < -1e-9*math.Max(1, maxd) {
				return nil, fmt.Errorf("%w: significantly negative time constant %g", ErrUnstableModel, d)
			}
			dvals[i] = 0
		}
	}
	p.dvals = dvals

	// W = Qᵀ·L⁻¹, η = W·ρ. The diagonal system is D·ẏ + y = η_lin·u(t) + η_nl·i.
	eta := matrix.NewDense(q, m.Ports)
	for j := 0; j < m.Ports; j++ {
		w := chol.SolveLower(m.Rho.Col(j)) // L⁻¹ ρ_j
		eta.SetCol(j, qmat.MulVecT(w))     // Qᵀ (L⁻¹ ρ_j)
	}

	// Cache η columns once: the transient loop reads them every step.
	p.etaCols = make([][]float64, m.Ports)
	for j := 0; j < m.Ports; j++ {
		p.etaCols[j] = eta.Col(j)
	}
	p.nSteps = int(math.Round(opt.TEnd / dt))
	if p.nSteps < 1 {
		p.nSteps = 1
	}
	p.buildStepState()
	diagSpan.End()
	return p, nil
}

// buildStepState derives everything the stepping loop needs beyond the
// numeric core (dvals, η, the port partition and dt): the trapezoidal
// coefficient, the DC and transient step systems, and the scratch. Prepare
// and PreparedFromCore share it, so a restored core steps exactly like a
// fresh one. All per-step and per-Newton-iteration scratch is allocated here
// and reused for every scenario and time step: the inner loop runs thousands
// of times per cluster and must not touch the allocator.
func (p *Prepared) buildStepState() {
	q, nNL := p.q, len(p.nlPorts)
	p.a = 2 / p.dt
	ones, delta := make([]float64, q), make([]float64, q)
	for i := range delta {
		ones[i] = 1
		delta[i] = p.a*p.dvals[i] + 1
	}
	p.nlEta = make([][]float64, nNL)
	for c, j := range p.nlPorts {
		p.nlEta[c] = p.etaCols[j]
	}
	p.dc, p.tran = p.newStepSystem(ones), p.newStepSystem(delta)
	p.scr = &simScratch{
		v:     make([]float64, p.ports),
		base:  make([]float64, q),
		r:     make([]float64, q),
		dinvr: make([]float64, q),
		s:     make([]float64, nNL),
		rhs:   make([]float64, nNL),
		piv:   make([]int, nNL),
		core:  make([]float64, nNL*nNL),
	}
}

// stepSystem is the Δ-dependent half of the Woodbury solve of paper Eq. 7
// for one Newton diagonal Δ, over the device-port columns U of η. Δ is
// constant for the whole DC solve and for the whole transient, so a Newton
// iteration never rebuilds Δ⁻¹U or the Gram; it only scales the Gram's rows
// by the device slopes.
type stepSystem struct {
	delta []float64 // Δ, length q
	dinvU []float64 // Δ⁻¹U: row c (length q) is Δ⁻¹·u_c
	gram  []float64 // G = UᵀΔ⁻¹U, nNL×nNL row-major: G[a·nNL+b] = u_a·Δ⁻¹u_b
}

// newStepSystem builds the step system of the diagonal delta.
func (p *Prepared) newStepSystem(delta []float64) stepSystem {
	q, nNL := p.q, len(p.nlPorts)
	sys := stepSystem{delta: delta, dinvU: make([]float64, nNL*q), gram: make([]float64, nNL*nNL)}
	for c, u := range p.nlEta {
		du := sys.dinvU[c*q : (c+1)*q]
		for i := range du {
			du[i] = u[i] / delta[i]
		}
	}
	for a, u := range p.nlEta {
		for b := 0; b < nNL; b++ {
			sys.gram[a*nNL+b] = matrix.Dot(u, sys.dinvU[b*q:(b+1)*q])
		}
	}
	return sys
}

// Order returns the reduced order of the prepared diagonal system.
func (p *Prepared) Order() int { return p.q }

// Matches reports whether terms has the conductance pattern this Prepared
// was factored for: same port count, same kind per port, and bit-equal
// conductances on the linear ports.
func (p *Prepared) Matches(terms []Termination) bool {
	if len(terms) != p.ports {
		return false
	}
	for j, tm := range terms {
		switch {
		case tm.Linear != nil && tm.Dev != nil:
			return false
		case tm.Linear != nil:
			if p.kinds[j] != portLinear || p.gs[j] != tm.Linear.G {
				return false
			}
		case tm.Dev != nil:
			if p.kinds[j] != portDevice {
				return false
			}
		default:
			if p.kinds[j] != portOpen {
				return false
			}
		}
	}
	return true
}

// Run executes one scenario against the prepared factorization. The result
// is bit-identical to Simulate with the same model, terminations and
// options: the stepping loop performs exactly the same floating-point
// operations in the same order.
func (p *Prepared) Run(sc Scenario) (*Result, error) {
	results, errs := p.runScenarios([]Scenario{sc}, false)
	return results[0], errs[0]
}

// RunBatch advances all scenarios in lockstep as one multi-RHS sweep: the
// shared diagonal D and the per-step trapezoidal coefficients are computed
// once per step, while each scenario owns one contiguous state column.
// Newton decisions are made per column — each column iterates to its own
// convergence and carries its own divergence or Check error — so every
// column's result is bit-identical to a serial Run of that scenario.
//
// The returned slices are indexed like scs; a scenario that failed has a nil
// Result and its error in errs (the surviving columns still complete).
// Callers that need serial-path error semantics surface the first non-nil
// error in scenario order.
func (p *Prepared) RunBatch(scs []Scenario) ([]*Result, []error) {
	return p.runScenarios(scs, true)
}

// column is the per-scenario state of a (possibly batched) stepping run.
type column struct {
	y, ynext, ydot []float64
	res            *Result
	err            error
	newton         int // Newton iterations, DC init included
	woodbury       int
}

func (c *column) fail(err error) {
	c.err = err
	c.res = nil
}

// runScenarios is the single stepping engine behind Run and RunBatch. All
// per-column arithmetic matches the historical per-Simulate loop operation
// for operation; batching only shares the scenario-independent pieces (the
// step systems and the scratch buffers) and interleaves columns step by
// step, which cannot change any column's floating-point sequence because
// columns never couple.
func (p *Prepared) runScenarios(scs []Scenario, batched bool) ([]*Result, []error) {
	k := len(scs)
	cols := make([]*column, k)
	results := make([]*Result, k)
	errs := make([]error, k)

	// Contiguous column-major state: scenario s owns [s·q, (s+1)·q).
	q := p.q
	yData := make([]float64, 3*k*q)
	for s := range cols {
		cols[s] = &column{
			y:     yData[(3*s+0)*q : (3*s+1)*q],
			ynext: yData[(3*s+1)*q : (3*s+2)*q],
			ydot:  yData[(3*s+2)*q : (3*s+3)*q],
		}
	}

	for s, sc := range scs {
		if err := p.validateScenario(sc); err != nil {
			cols[s].fail(err)
			continue
		}
		if batched {
			sc.Trace.Add(obs.CtrScenariosBatched, 1)
		}
		if p.executed > 0 {
			sc.Trace.Add(obs.CtrDiagonalizeSkipped, 1)
		}
		p.executed++
	}

	spans := make([]obs.Span, k)
	for s, sc := range scs {
		if cols[s].err == nil {
			spans[s] = sc.Trace.Start(obs.PhaseTransient)
		}
	}

	// Initial condition: DC operating point (ẏ = 0 ⇒ Δ = 1).
	if !p.noInitDC {
		for s, sc := range scs {
			c := cols[s]
			if c.err != nil {
				continue
			}
			p.forceInto(p.scr.base, sc.Terms, 0)
			if err := p.newtonLoop(c, &p.dc, p.scr.base, c.y, c.ynext, sc.Terms, 0, sc.Trace); err != nil {
				c.fail(fmt.Errorf("romsim: DC init: %w", err))
				continue
			}
			c.y, c.ynext = c.ynext, c.y
		}
	}
	// ẏ at t=0 from D·ẏ = −R_alg(y); with DC init it is ~0. For simplicity
	// and stability start trapezoidal with ẏ = 0 (consistent after DC init).

	for s := range scs {
		c := cols[s]
		if c.err != nil {
			continue
		}
		c.res = &Result{Ports: make([]*waveform.Waveform, p.ports)}
		dotsInto(p.scr.v, p.etaCols, c.y)
		for j := range c.res.Ports {
			c.res.Ports[j] = waveform.New(p.nSteps + 1)
			c.res.Ports[j].Append(0, p.scr.v[j])
		}
	}

	a := p.a
	dvals := p.dvals
	for n := 1; n <= p.nSteps; n++ {
		t := float64(n) * p.dt
		for s, sc := range scs {
			c := cols[s]
			if c.err != nil {
				continue
			}
			if sc.Check != nil {
				if err := sc.Check(); err != nil {
					c.fail(err)
					continue
				}
			}
			// Trapezoidal: D·(a·(y−y_prev) − ẏ_prev) + y = f(t) + η·i.
			// base = f(t) + D∘(a·y_prev + ẏ_prev).
			base := p.scr.base
			p.forceInto(base, sc.Terms, t)
			for i := 0; i < q; i++ {
				base[i] += dvals[i] * (a*c.y[i] + c.ydot[i])
			}
			if err := p.newtonLoop(c, &p.tran, base, c.y, c.ynext, sc.Terms, t, sc.Trace); err != nil {
				c.fail(err)
				continue
			}
			for i := 0; i < q; i++ {
				c.ydot[i] = a*(c.ynext[i]-c.y[i]) - c.ydot[i]
			}
			c.y, c.ynext = c.ynext, c.y
			v := p.scr.v
			dotsInto(v, p.etaCols, c.y)
			for j, w := range c.res.Ports {
				w.Append(t, v[j])
			}
			c.res.Steps++
		}
	}

	// Post the iteration counters exactly once per scenario, failed columns
	// included (matching the per-Simulate defer).
	for s, sc := range scs {
		c := cols[s]
		sc.Trace.Add(obs.CtrNewtonIterations, int64(c.newton))
		sc.Trace.Add(obs.CtrWoodburySolves, int64(c.woodbury))
		spans[s].End()
		if c.res != nil {
			c.res.NewtonIterations = c.newton
		}
		results[s], errs[s] = c.res, c.err
	}
	return results, errs
}

// validateScenario rejects terminations that do not match the prepared
// conductance pattern.
func (p *Prepared) validateScenario(sc Scenario) error {
	if len(sc.Terms) != p.ports {
		return fmt.Errorf("%w: %d terminations for %d ports", ErrPatternMismatch, len(sc.Terms), p.ports)
	}
	if !p.Matches(sc.Terms) {
		return ErrPatternMismatch
	}
	return nil
}

// forceInto computes the linear-source forcing f(t) = Σ g_j·Vs_j(t)·η_j.
func (p *Prepared) forceInto(f []float64, terms []Termination, t float64) {
	for i := range f {
		f[i] = 0
	}
	for _, j := range p.linPorts {
		lt := terms[j].Linear
		matrix.Axpy(lt.G*lt.Vs(t), p.etaCols[j], f)
	}
}

// newtonSolve solves (Δ + Σ_nl (−di_k/dv)·η_k·η_kᵀ)·x = r via Woodbury,
// where Δ = diag(sys.delta). s holds the −di/dv factors per nonlinear port.
// The returned slice aliases scratch and is only valid until the next call.
func (p *Prepared) newtonSolve(sys *stepSystem, s, r []float64, wood *int) ([]float64, error) {
	q := p.q
	nNL := len(p.nlPorts)
	delta := sys.delta
	if p.denseNewt {
		// Ablation path: assemble J = Δ + Σ s_c·η_c·η_cᵀ densely. Kept
		// deliberately allocation-heavy and factorization-per-call — it
		// exists to measure what Eq. 7 saves, not to be fast.
		j := matrix.NewDense(q, q)
		for i := 0; i < q; i++ {
			j.Set(i, i, delta[i])
		}
		for c, jp := range p.nlPorts {
			col := p.etaCols[jp]
			sc := s[c]
			if sc == 0 {
				continue
			}
			for a := 0; a < q; a++ {
				for b := 0; b < q; b++ {
					j.Add(a, b, sc*col[a]*col[b])
				}
			}
		}
		lu, err := matrix.FactorLU(j)
		if err != nil {
			return nil, err
		}
		return lu.Solve(r)
	}
	scr := p.scr
	dinvr := scr.dinvr
	for i := range r {
		dinvr[i] = r[i] / delta[i]
	}
	if nNL == 0 {
		return dinvr, nil
	}
	// Small core system: (I + S·G)·z = S·UᵀΔ⁻¹r, x = Δ⁻¹r − Δ⁻¹U·z, with
	// the Gram G = UᵀΔ⁻¹U taken from the step system.
	core, rhs := scr.core, scr.rhs
	dotsInto(rhs, p.nlEta, dinvr)
	for a := range p.nlPorts {
		row, g := core[a*nNL:(a+1)*nNL], sys.gram[a*nNL:(a+1)*nNL]
		for b := range row {
			id := 0.0
			if a == b {
				id = 1
			}
			row[b] = id + s[a]*g[b]
		}
		rhs[a] = s[a] * rhs[a]
	}
	// Factor and solve the tiny core in place; rhs becomes z.
	if err := matrix.SolveLUInPlace(core, nNL, scr.piv, rhs); err != nil {
		return nil, fmt.Errorf("romsim: Woodbury core singular: %w", err)
	}
	*wood++
	x := dinvr
	for c := range p.nlPorts {
		matrix.Axpy(-rhs[c], sys.dinvU[c*q:(c+1)*q], x)
	}
	return x, nil
}

// residualInto computes R(y) = Δ∘y − base − η_nl·i(v,t) into r and the
// s = −di/dv factors into s, for a given diagonal delta and constant part
// base.
func (p *Prepared) residualInto(r, s, delta, base, y []float64, terms []Termination, t float64) {
	for i := range r {
		r[i] = delta[i]*y[i] - base[i]
	}
	v := p.scr.v[:len(p.nlPorts)]
	dotsInto(v, p.nlEta, y)
	for c, j := range p.nlPorts {
		i, di := terms[j].Dev.Current(v[c], t)
		matrix.Axpy(-i, p.nlEta[c], r)
		s[c] = -di
	}
}

// newtonLoop drives yout (seeded from y0) to R(yout)=0 for the given step
// system, base and t. yout must not alias y0.
func (p *Prepared) newtonLoop(c *column, sys *stepSystem, base, y0, yout []float64, terms []Termination, t float64, tr *obs.Trace) error {
	if len(p.nlPorts) == 0 && !p.denseNewt {
		// With no device ports the step equation Δ∘y = base is linear:
		// Newton from any seed lands on this closed form in one iteration
		// and then burns a second confirming convergence. Solve directly.
		c.newton++
		for i := range yout {
			yout[i] = base[i] / sys.delta[i]
		}
		return nil
	}
	copy(yout, y0)
	for it := 0; it < p.maxNewton; it++ {
		c.newton++
		p.residualInto(p.scr.r, p.scr.s, sys.delta, base, yout, terms, t)
		dy, err := p.newtonSolve(sys, p.scr.s, p.scr.r, &c.woodbury)
		if err != nil {
			return err
		}
		matrix.Axpy(-1, dy, yout)
		// Convergence on the port-voltage scale: η is bounded, so the
		// state-space norm is a safe proxy.
		if matrix.NormInf(dy) < p.tol {
			return nil
		}
	}
	tr.Add(obs.CtrNewtonDivergences, 1)
	return fmt.Errorf("%w at t=%g", ErrNewtonDiverged, t)
}

// simScratch bundles the buffers the inner loops reuse across every time
// step, Newton iteration and scenario column.
type simScratch struct {
	base     []float64 // per-step constant part
	r, dinvr []float64 // Newton residual and its Δ⁻¹-scaled copy
	s, rhs   []float64 // −di/dv factors and Woodbury core RHS
	piv      []int     // pivot scratch for the in-place core solve
	core     []float64 // nNL×nNL Woodbury core I + S·G, row-major
	v        []float64 // port voltages η_jᵀ·y
}

// dotsInto sets out[k] = matrix.Dot(xs[k], y) for every k. It runs the dots
// two at a time, each in its own accumulator summing in Dot's order, so
// every result keeps its bits while the two add chains overlap.
func dotsInto(out []float64, xs [][]float64, y []float64) {
	k := 0
	for ; k+2 <= len(xs); k += 2 {
		a, b := xs[k][:len(y)], xs[k+1][:len(y)]
		var sa, sb float64
		for i, v := range y {
			sa += a[i] * v
			sb += b[i] * v
		}
		out[k], out[k+1] = sa, sb
	}
	if k < len(xs) {
		out[k] = matrix.Dot(xs[k], y)
	}
}
