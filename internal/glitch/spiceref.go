package glitch

import (
	"fmt"
	"math"

	"xtverify/internal/cells"
	"xtverify/internal/circuit"
	"xtverify/internal/prune"
	"xtverify/internal/romsim"
	"xtverify/internal/spice"
	"xtverify/internal/waveform"
)

// SPICEResult is the reference-engine counterpart of Result.
type SPICEResult struct {
	VictimName string
	PeakV      float64
	PeakTime   float64
	// ReceiverWave is the worst victim-receiver waveform.
	ReceiverWave *waveform.Waveform
	// Steps, NewtonIterations and Factorizations expose the engine cost for
	// the speedup comparisons.
	Steps, NewtonIterations, Factorizations int
	// Nodes is the SPICE matrix size.
	Nodes int
}

// SPICEGlitch runs the identical glitch analysis on the unreduced cluster in
// the SPICE-class engine. When transistorLevel is true, aggressor and victim
// drivers are instantiated at transistor level (the Figures 6–7 reference);
// otherwise the engine hosts the same behavioural driver models the
// reduced-order flow uses (the Figure 3 setup, where both engines carry the
// same linear drive and the difference isolates the model-order-reduction
// error).
func (e *Engine) SPICEGlitch(cl *prune.Cluster, glitchRising, transistorLevel bool) (*SPICEResult, error) {
	s, err := e.setup(cl, false, nil)
	if err != nil {
		return nil, err
	}
	ckt, cp := s.ckt, s.cp
	net := spice.NewNetlist(ckt.Name + "_spice")
	nodeOf := make([]spice.Node, ckt.NumNodes())
	for i := range nodeOf {
		nodeOf[i] = net.Node(ckt.NodeName(circuit.NodeID(i)))
	}
	for _, r := range ckt.Resistors {
		net.AddR(nodeOf[r.A], nodeOf[r.B], r.Ohms)
	}
	for _, c := range ckt.Capacitors {
		b := spice.Ground
		if c.B != circuit.Ground {
			b = nodeOf[c.B]
		}
		a := spice.Ground
		if c.A != circuit.Ground {
			a = nodeOf[c.A]
		}
		net.AddC(a, b, c.Farads)
	}
	portNode := func(pi int) spice.Node { return nodeOf[ckt.Ports[pi].Node] }

	hold, baseline := glitchHold(glitchRising)
	if transistorLevel {
		vddNode := net.Node("vdd!")
		net.Drive(vddNode, waveform.Const(Vdd))
		if err := e.strongestCell(cl.Victim).BuildHolding(net, "xvictim", portNode(cp.victimDriver), vddNode, hold); err != nil {
			return nil, err
		}
		plans := e.planAggressors(cl, glitchRising)
		for i, pi := range cp.aggDrivers {
			plan, aNode := plans[i], portNode(pi)
			prefix := fmt.Sprintf("xagg%d", i)
			if plan.Quiet {
				if err := plan.Cell.BuildHolding(net, prefix, aNode, vddNode, cells.HoldLow); err != nil {
					return nil, err
				}
				continue
			}
			in := net.Node(prefix + ".in")
			net.Drive(in, e.aggressorSource(plan))
			if _, err := plan.Cell.BuildDriver(net, prefix, in, aNode, vddNode); err != nil {
				return nil, err
			}
		}
	} else {
		// The reduced-order flow's own terminations, victim first.
		terms, _, err := e.glitchTerms(cl, s, glitchScenario{glitchRising: glitchRising})
		if err != nil {
			return nil, err
		}
		for _, pi := range append([]int{cp.victimDriver}, cp.aggDrivers...) {
			if err := attachBehavioral(net, portNode(pi), terms[pi]); err != nil {
				return nil, err
			}
		}
	}
	// Idle bus drivers stay open in both views (tri-stated).

	tr, err := net.Transient(spice.Options{TEnd: e.Opt.TEnd, Dt: e.Opt.Dt})
	if err != nil {
		return nil, err
	}
	res := &SPICEResult{
		VictimName:       e.Par.Design.Nets[cl.Victim].Name,
		Steps:            tr.Steps,
		NewtonIterations: tr.NewtonIterations,
		Factorizations:   tr.Factorizations,
		Nodes:            net.NumNodes(),
	}
	for _, pi := range cp.receivers {
		w, err := tr.Wave(ckt.NodeName(ckt.Ports[pi].Node))
		if err != nil {
			return nil, err
		}
		pk := w.PeakDeviation(baseline)
		if pk.Abs > math.Abs(res.PeakV) {
			res.PeakV = pk.Value
			res.PeakTime = pk.Time
			res.ReceiverWave = w
		}
	}
	if res.ReceiverWave == nil {
		w, _ := tr.Wave(ckt.NodeName(ckt.Ports[cp.receivers[0]].Node))
		res.ReceiverWave = w
	}
	return res, nil
}

// attachBehavioral mounts a romsim termination onto a SPICE node: linear
// terminations become behavioural Thevenin devices, nonlinear device models
// attach directly (they satisfy spice.Behavioral), open terminations attach
// nothing.
func attachBehavioral(net *spice.Netlist, node spice.Node, term romsim.Termination) error {
	switch {
	case term.Linear != nil:
		net.AddBehavioral(node, thevenin{g: term.Linear.G, vs: term.Linear.Vs})
	case term.Dev != nil:
		dev, ok := term.Dev.(spice.Behavioral)
		if !ok {
			return fmt.Errorf("glitch: nonlinear termination does not satisfy spice.Behavioral")
		}
		net.AddBehavioral(node, dev)
	}
	return nil
}

// thevenin is the behavioural Thevenin one-port used to host linear driver
// models in the SPICE engine.
type thevenin struct {
	g  float64
	vs waveform.Source
}

// Current implements spice.Behavioral.
func (t thevenin) Current(v, tt float64) (float64, float64) {
	return t.g * (t.vs(tt) - v), -t.g
}
