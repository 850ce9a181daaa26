// Package spice is the reference transistor-level circuit simulator used as
// the "SPICE" golden baseline of the paper's experiments. It solves the full
// (unreduced) nonlinear network by modified nodal analysis with:
//
//   - trapezoidal integration of capacitors via companion models,
//   - Newton–Raphson linearization of MOSFETs and behavioural devices,
//   - skyline LU factorization with RCM preordering, and
//   - ideal voltage drive by node elimination (driven nodes are known).
//
// It is intentionally a classical fixed-step engine: the point of the paper
// is that SyMPVL + nonlinear terminations reproduces this engine's cluster
// waveforms orders of magnitude faster.
package spice

import (
	"fmt"
	"math"

	"xtverify/internal/matrix"
	"xtverify/internal/waveform"
)

// Node identifies a circuit node. Ground is the negative sentinel.
type Node int

// Ground is the reference node.
const Ground Node = -1

// Behavioral is a one-port nonlinear element to ground; Current returns the
// current flowing from the element into the node and its derivative with
// respect to the node voltage. It lets the engine host the same
// pre-characterized cell models the reduced-order simulator uses.
type Behavioral interface {
	Current(v, t float64) (i, didv float64)
}

type resistor struct {
	a, b Node
	g    float64
}

type capacitor struct {
	a, b Node
	c    float64
	// Companion state: voltage across and current through at the last
	// accepted time point.
	vPrev, iPrev float64
}

type mosfet struct {
	d, g, s Node
	eval    func(vd, vg, vs float64) (id, gm, gds float64)
}

type behavioral struct {
	n   Node
	dev Behavioral
}

// Netlist is a mutable circuit under construction.
type Netlist struct {
	Name      string
	nodeNames []string
	nodeIndex map[string]Node
	driven    map[Node]waveform.Source

	resistors   []resistor
	capacitors  []capacitor
	mosfets     []mosfet
	behaviorals []behavioral
}

// NewNetlist returns an empty netlist.
func NewNetlist(name string) *Netlist {
	return &Netlist{Name: name, nodeIndex: make(map[string]Node), driven: make(map[Node]waveform.Source)}
}

// Node interns a node by name.
func (n *Netlist) Node(name string) Node {
	if id, ok := n.nodeIndex[name]; ok {
		return id
	}
	id := Node(len(n.nodeNames))
	n.nodeNames = append(n.nodeNames, name)
	n.nodeIndex[name] = id
	return id
}

// NumNodes returns the number of named nodes (driven or free).
func (n *Netlist) NumNodes() int { return len(n.nodeNames) }

// Drive pins a node to an ideal time-varying voltage source.
func (n *Netlist) Drive(node Node, src waveform.Source) {
	if node == Ground {
		panic("spice: cannot drive ground")
	}
	n.driven[node] = src
}

// AddR adds a resistor.
func (n *Netlist) AddR(a, b Node, ohms float64) {
	if ohms <= 0 {
		panic(fmt.Sprintf("spice: non-positive resistance %g", ohms))
	}
	n.resistors = append(n.resistors, resistor{a: a, b: b, g: 1 / ohms})
}

// AddC adds a capacitor.
func (n *Netlist) AddC(a, b Node, farads float64) {
	if farads <= 0 {
		panic(fmt.Sprintf("spice: non-positive capacitance %g", farads))
	}
	n.capacitors = append(n.capacitors, capacitor{a: a, b: b, c: farads})
}

// AddMOS adds a transistor via its Eval function (drain, gate, source).
func (n *Netlist) AddMOS(d, g, s Node, eval func(vd, vg, vs float64) (id, gm, gds float64)) {
	n.mosfets = append(n.mosfets, mosfet{d: d, g: g, s: s, eval: eval})
}

// AddBehavioral attaches a nonlinear one-port between node and ground.
func (n *Netlist) AddBehavioral(node Node, dev Behavioral) {
	n.behaviorals = append(n.behaviorals, behavioral{n: node, dev: dev})
}

// Every analysis grounds each free node through gmin (siemens) and runs
// Newton to newtonTol (volts) within maxNewton iterations per solve.
const (
	gmin      = 1e-9
	newtonTol = 1e-6
	maxNewton = 100
)

// Options configures analyses.
type Options struct {
	// TEnd is the transient span.
	TEnd float64
	// Dt is the fixed step; TEnd/1000 if zero.
	Dt float64
	// Adaptive enables local-truncation-error step control: the step
	// shrinks through fast edges and grows across quiet spans, bounded by
	// [Dt/8, 16·Dt]. Waveforms then carry non-uniform time points.
	Adaptive bool
	// LTETol is the per-step voltage error target for adaptive stepping
	// (1 mV if zero).
	LTETol float64
}

// Result holds transient waveforms for every node (driven nodes included for
// convenience).
type Result struct {
	net   *Netlist
	Waves []*waveform.Waveform
	// Steps and NewtonIterations are cost counters for the speedup benches.
	Steps            int
	NewtonIterations int
	// Factorizations counts LU factorizations performed.
	Factorizations int
}

// Wave returns the waveform of the named node.
func (r *Result) Wave(name string) (*waveform.Waveform, error) {
	id, ok := r.net.nodeIndex[name]
	if !ok {
		return nil, fmt.Errorf("spice: unknown node %q", name)
	}
	return r.Waves[id], nil
}

// engine carries the prepared solve structures.
type engine struct {
	net     *Netlist
	opt     Options
	freeIdx []int // node -> free index or -1
	free    []Node
	perm    []int // free index -> skyline index (RCM)
	tmpl    *matrix.SkylineTemplate
	mat     *matrix.Skyline
	rhs     []float64
	xp      []float64 // permuted RHS / solution scratch for solveNewton
	v       []float64 // full node voltages (driven + free)
	t       float64
	dt      float64 // 0 during DC solves (capacitors open)
	newton  int
	factor  int
}

func (n *Netlist) prepare(opt Options) (*engine, error) {
	e := &engine{net: n, opt: opt}
	e.freeIdx = make([]int, len(n.nodeNames))
	for i := range e.freeIdx {
		if _, ok := n.driven[Node(i)]; ok {
			e.freeIdx[i] = -1
		} else {
			e.freeIdx[i] = len(e.free)
			e.free = append(e.free, Node(i))
		}
	}
	if len(e.free) == 0 {
		return nil, fmt.Errorf("spice: no free nodes in %q", n.Name)
	}
	// Build the free-free adjacency (union of all element patterns).
	pat := matrix.NewSparse(len(e.free))
	pair := func(a, b Node) {
		fa, fb := e.fidx(a), e.fidx(b)
		if fa >= 0 {
			pat.Add(fa, fa, 1)
		}
		if fb >= 0 {
			pat.Add(fb, fb, 1)
		}
		if fa >= 0 && fb >= 0 && fa != fb {
			pat.Add(fa, fb, 1)
			pat.Add(fb, fa, 1)
		}
	}
	for _, r := range n.resistors {
		pair(r.a, r.b)
	}
	for _, c := range n.capacitors {
		pair(c.a, c.b)
	}
	for _, m := range n.mosfets {
		pair(m.d, m.s)
		pair(m.d, m.g)
		pair(m.s, m.g)
	}
	for _, b := range n.behaviorals {
		pair(b.n, b.n)
	}
	// Freeze the assembly-side pattern into CSR once: the RCM ordering and
	// the skyline template derive from flat sorted arrays instead of the
	// map-backed accumulator.
	patc := pat.Compile()
	adj := patc.Adjacency()
	e.perm = matrix.RCM(adj)
	permAdj := patc.Permuted(e.perm).Adjacency()
	e.tmpl = matrix.NewSkylineTemplate(permAdj, false)
	e.mat = e.tmpl.NewMatrix()
	e.rhs = make([]float64, len(e.free))
	e.xp = make([]float64, len(e.free))
	e.v = make([]float64, len(n.nodeNames))
	return e, nil
}

func (e *engine) fidx(n Node) int {
	if n == Ground {
		return -1
	}
	return e.freeIdx[n]
}

// volt returns the present voltage of any node, honoring driven sources.
func (e *engine) volt(n Node) float64 {
	if n == Ground {
		return 0
	}
	return e.v[n]
}

// addG stamps a conductance between nodes a and b, moving contributions of
// driven nodes to the RHS.
func (e *engine) addG(a, b Node, g float64) {
	fa, fb := e.fidx(a), e.fidx(b)
	if fa >= 0 {
		e.mat.Add(e.perm[fa], e.perm[fa], g)
		if fb >= 0 {
			e.mat.Add(e.perm[fa], e.perm[fb], -g)
		} else {
			e.rhs[fa] += g * e.volt(b)
		}
	}
	if fb >= 0 {
		e.mat.Add(e.perm[fb], e.perm[fb], g)
		if fa >= 0 {
			e.mat.Add(e.perm[fb], e.perm[fa], -g)
		} else {
			e.rhs[fb] += g * e.volt(a)
		}
	}
}

// addGDirectional stamps the entry row=ra, col=ca with value g (for
// nonsymmetric MOSFET transconductance), folding driven columns into RHS.
func (e *engine) addGDirectional(ra, ca Node, g float64) {
	fr := e.fidx(ra)
	if fr < 0 {
		return
	}
	fc := e.fidx(ca)
	if fc >= 0 {
		e.mat.Add(e.perm[fr], e.perm[fc], g)
	} else {
		e.rhs[fr] -= g * e.volt(ca)
	}
}

// addI stamps a current i flowing INTO node n.
func (e *engine) addI(n Node, i float64) {
	if f := e.fidx(n); f >= 0 {
		e.rhs[f] += i
	}
}

// stampAll rebuilds the matrix and RHS for the present Newton voltages.
func (e *engine) stampAll() {
	e.mat.Clear()
	for i := range e.rhs {
		e.rhs[i] = 0
	}
	for _, f := range e.free {
		e.mat.Add(e.perm[e.freeIdx[f]], e.perm[e.freeIdx[f]], gmin)
	}
	for _, r := range e.net.resistors {
		e.addG(r.a, r.b, r.g)
	}
	if e.dt > 0 {
		for i := range e.net.capacitors {
			c := &e.net.capacitors[i]
			geq := 2 * c.c / e.dt
			// Trapezoidal companion: i = geq·v − (geq·vPrev + iPrev).
			ieq := geq*c.vPrev + c.iPrev
			e.addG(c.a, c.b, geq)
			e.addI(c.a, ieq)
			e.addI(c.b, -ieq)
		}
	}
	for _, m := range e.net.mosfets {
		vd, vg, vs := e.volt(m.d), e.volt(m.g), e.volt(m.s)
		id, gm, gds := m.eval(vd, vg, vs)
		// Linearized drain current: i ≈ Ieq + gm·vgs + gds·vds.
		ieq := id - gm*(vg-vs) - gds*(vd-vs)
		// Row d: current leaves node d into the channel.
		e.addGDirectional(m.d, m.g, gm)
		e.addGDirectional(m.d, m.d, gds)
		e.addGDirectional(m.d, m.s, -(gm + gds))
		e.addI(m.d, -ieq)
		// Row s: the same current enters node s.
		e.addGDirectional(m.s, m.g, -gm)
		e.addGDirectional(m.s, m.d, -gds)
		e.addGDirectional(m.s, m.s, gm+gds)
		e.addI(m.s, ieq)
	}
	for _, b := range e.net.behaviorals {
		v := e.volt(b.n)
		i, di := b.dev.Current(v, e.t)
		// i(v) ≈ i0 + di·(v − v0): conductance −di, source i0 − di·v0.
		e.addGDirectional(b.n, b.n, -di)
		e.addI(b.n, i-di*v)
	}
}

// solveNewton iterates to convergence at the present time/dt configuration.
func (e *engine) solveNewton() error {
	for it := 0; it < maxNewton; it++ {
		e.newton++
		// Refresh driven node voltages.
		for node, src := range e.net.driven {
			e.v[node] = src(e.t)
		}
		e.stampAll()
		if err := e.mat.FactorLU(); err != nil {
			return fmt.Errorf("spice: t=%g: %w", e.t, err)
		}
		e.factor++
		// Permute the RHS into skyline order, solve in place, and read the
		// solution back through the permutation — no per-iteration slices.
		for i, p := range e.perm {
			e.xp[p] = e.rhs[i]
		}
		e.mat.SolveLUTo(e.xp, e.xp)
		worst := 0.0
		for i, f := range e.free {
			xi := e.xp[e.perm[i]]
			if d := math.Abs(xi - e.v[f]); d > worst {
				worst = d
			}
			e.v[f] = xi
		}
		if worst < newtonTol {
			return nil
		}
	}
	return fmt.Errorf("spice: Newton did not converge at t=%g", e.t)
}

// DCOperatingPoint solves the static network (capacitors open) at time t and
// returns the node voltages indexed by Node.
func (n *Netlist) DCOperatingPoint(t float64, opt Options) ([]float64, error) {
	e, err := n.prepare(opt)
	if err != nil {
		return nil, err
	}
	e.t = t
	e.dt = 0
	if err := e.solveNewton(); err != nil {
		return nil, err
	}
	return append([]float64(nil), e.v...), nil
}

// Transient runs a fixed-step trapezoidal transient analysis from a DC
// operating point at t=0.
func (n *Netlist) Transient(opt Options) (*Result, error) {
	if opt.TEnd <= 0 {
		return nil, fmt.Errorf("spice: TEnd must be positive")
	}
	if opt.Dt <= 0 {
		opt.Dt = opt.TEnd / 1000
	}
	e, err := n.prepare(opt)
	if err != nil {
		return nil, err
	}
	// DC init.
	e.t, e.dt = 0, 0
	if err := e.solveNewton(); err != nil {
		return nil, fmt.Errorf("spice: DC init: %w", err)
	}
	// Initialize capacitor companion state from the operating point.
	for i := range n.capacitors {
		c := &n.capacitors[i]
		c.vPrev = e.volt(c.a) - e.volt(c.b)
		c.iPrev = 0
	}
	defer func() {
		// Reset companion state so the netlist can be reused.
		for i := range n.capacitors {
			n.capacitors[i].vPrev, n.capacitors[i].iPrev = 0, 0
		}
	}()

	res := &Result{net: n, Waves: make([]*waveform.Waveform, len(n.nodeNames))}
	for i := range res.Waves {
		res.Waves[i] = waveform.New(1024)
		res.Waves[i].Append(0, e.v[i])
	}
	accept := func() {
		for i := range n.capacitors {
			c := &n.capacitors[i]
			vNow := e.volt(c.a) - e.volt(c.b)
			geq := 2 * c.c / e.dt
			c.iPrev = geq*(vNow-c.vPrev) - c.iPrev
			c.vPrev = vNow
		}
		for i := range res.Waves {
			res.Waves[i].Append(e.t, e.v[i])
		}
		res.Steps++
	}
	if !opt.Adaptive {
		nSteps := int(math.Round(opt.TEnd / opt.Dt))
		if nSteps < 1 {
			nSteps = 1
		}
		e.dt = opt.Dt
		for step := 1; step <= nSteps; step++ {
			e.t = float64(step) * opt.Dt
			if err := e.solveNewton(); err != nil {
				return nil, err
			}
			accept()
		}
		res.NewtonIterations = e.newton
		res.Factorizations = e.factor
		return res, nil
	}

	// Adaptive stepping: linear extrapolation from the last two accepted
	// points predicts the next solution; the predictor-corrector gap
	// estimates the local truncation error and steers the step.
	tol := opt.LTETol
	if tol == 0 {
		tol = 1e-3
	}
	dtMin, dtMax := opt.Dt/8, 16*opt.Dt
	dt := opt.Dt
	tNow := 0.0
	vPrev := append([]float64(nil), e.v...) // previous accepted solution
	dtPrev := 0.0
	for tNow < opt.TEnd-1e-21 {
		if tNow+dt > opt.TEnd {
			dt = opt.TEnd - tNow
		}
		// Save state for possible rejection.
		vSave := append([]float64(nil), e.v...)
		e.dt = dt
		e.t = tNow + dt
		if err := e.solveNewton(); err != nil {
			return nil, err
		}
		// Predictor: linear extrapolation of the accepted history.
		worst := 0.0
		if dtPrev > 0 {
			for _, f := range e.free {
				pred := vSave[f] + (vSave[f]-vPrev[f])*(dt/dtPrev)
				if d := math.Abs(e.v[f] - pred); d > worst {
					worst = d
				}
			}
		}
		if worst > 4*tol && dt > dtMin {
			// Reject: restore and retry with half the step.
			copy(e.v, vSave)
			dt = math.Max(dt/2, dtMin)
			continue
		}
		// Accept.
		vPrev = vSave
		dtPrev = dt
		tNow += dt
		accept()
		switch {
		case worst > tol:
			dt = math.Max(dt*0.7, dtMin)
		case worst < tol/8:
			dt = math.Min(dt*1.5, dtMax)
		}
	}
	res.NewtonIterations = e.newton
	res.Factorizations = e.factor
	return res, nil
}
