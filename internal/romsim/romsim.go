// Package romsim integrates the SyMPVL reduced-order model together with
// linear (Thevenin) and nonlinear driver terminations — the paper's
// Equations 4–7.
//
// The reduced cluster x̂ + T·dx̂/dt = ρ·i, v_port = ρᵀ·x̂ is combined with
// port terminations:
//
//   - linear:    i_j = g_j·(Vs_j(t) − v_j)  (Thevenin source + resistor)
//   - nonlinear: i_k = i_k(v_k, t)          (pre-characterized cell model)
//   - open:      i_j = 0                     (observation-only receiver port)
//
// Folding the linear conductances into the left-hand side yields
// M·x̂ + T·dx̂/dt = f(t) + Σ ρ_k·i_k with M = I + Σ g_j·ρ_j·ρ_jᵀ. The
// generalized symmetric pair (T, M) is diagonalized (M = L·Lᵀ, then
// eigendecomposition of L⁻¹·T·L⁻ᵀ), giving the diagonal system
// D·ẏ + y = η·i of paper Eq. 5. A trapezoidal (linear multistep)
// integrator then advances y; each Newton step solves a diagonal-plus-rank-k
// Jacobian by the Sherman–Morrison–Woodbury identity (Eq. 7), which is what
// makes the method so much cheaper than SPICE.
//
// Crucially, the diagonalization depends only on the model and the linear
// conductance pattern — not on the source waveforms or device models — so it
// can be shared between scenarios. Prepare factors it (together with the
// per-step scratch and the trapezoidal coefficients for a fixed Dt) into a
// reusable Prepared object; Prepared.Run executes one scenario against it and
// Prepared.RunBatch advances several scenarios in lockstep as a multi-RHS
// sweep. Simulate is the one-shot convenience wrapper (Prepare + Run) and is
// bit-identical to running the two stages separately.
package romsim

import (
	"errors"

	"xtverify/internal/obs"
	"xtverify/internal/sympvl"
	"xtverify/internal/waveform"
)

// Typed failure reasons, matched with errors.Is by the chip-level fallback
// ladder to pick a recovery strategy.
var (
	// ErrNewtonDiverged reports that a Newton iteration exhausted its
	// budget without converging (a pathological driver operating point or
	// an over-aggressive time step).
	ErrNewtonDiverged = errors.New("romsim: Newton iteration failed to converge")
	// ErrUnstableModel reports a structurally bad reduced model: the
	// termination matrix is not SPD or a significantly negative time
	// constant survived reduction.
	ErrUnstableModel = errors.New("romsim: unstable or non-passive model")
	// ErrPatternMismatch reports a scenario whose terminations do not match
	// the conductance pattern a Prepared object was factored for.
	ErrPatternMismatch = errors.New("romsim: scenario terminations do not match prepared conductance pattern")
)

// Device is a nonlinear one-port termination. Current returns the current
// flowing from the device into the network for a given port voltage v and
// time t, together with its derivative with respect to v.
type Device interface {
	Current(v, t float64) (i, didv float64)
}

// Termination attaches behaviour to one model port. Exactly one of Linear or
// Dev may be set; a zero Termination is an open (observation) port.
type Termination struct {
	// Linear, when non-nil, is a Thevenin termination.
	Linear *Linear
	// Dev, when non-nil, is a nonlinear device termination.
	Dev Device
}

// Linear is a Thevenin termination: conductance G in series behaviour
// i = G·(Vs(t) − v).
type Linear struct {
	G  float64
	Vs waveform.Source
}

// Every transient starts from the DC operating point and runs Newton to
// newtonTol (volts) within maxNewton iterations per step.
const (
	newtonTol = 1e-9
	maxNewton = 50
)

// Options configures the transient run.
type Options struct {
	// TEnd is the simulation span (seconds).
	TEnd float64
	// Dt is the fixed time step; TEnd/1000 if zero.
	Dt float64
	// DenseNewton solves each Newton step with a dense LU factorization of
	// the full Jacobian instead of the Sherman–Morrison–Woodbury
	// diagonal-plus-rank-k solve. It exists only to quantify the benefit of
	// the paper's Eq. 7 structure exploitation (BenchmarkAblationWoodbury).
	DenseNewton bool
	// Check, when non-nil, is polled once per accepted time step; a
	// non-nil return aborts the transient with that error. Used to honor
	// context cancellation and per-cluster deadlines. Prepare ignores Check
	// (preparation is not a stepping loop); per-scenario checks travel in
	// Scenario.Check instead.
	Check func() error
	// Trace, when non-nil, receives the analysis' phase spans (diagonalize,
	// transient) and counters (Newton iterations/divergences, Woodbury
	// solves). The hot loops keep local counts and post them once per run,
	// so a nil Trace costs a few nil checks per Simulate call.
	Trace *obs.Trace
}

// Result holds the transient outcome.
type Result struct {
	// Ports holds one waveform per model port, indexed like the model.
	Ports []*waveform.Waveform
	// Steps is the number of accepted time steps.
	Steps int
	// NewtonIterations is the total Newton iteration count.
	NewtonIterations int
}

// Simulate runs a transient analysis of the reduced model with the given
// terminations (len(terms) must equal the model port count). It is the
// one-shot form of Prepare followed by Prepared.Run and produces bit-identical
// results; callers that run several scenarios against the same model and
// conductance pattern should hold the Prepared instead, amortizing the
// diagonalization.
func Simulate(m *sympvl.Model, terms []Termination, opt Options) (*Result, error) {
	p, err := Prepare(m, terms, opt)
	if err != nil {
		return nil, err
	}
	return p.Run(Scenario{Terms: terms, Check: opt.Check, Trace: opt.Trace})
}
