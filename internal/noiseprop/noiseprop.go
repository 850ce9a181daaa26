// Package noiseprop propagates crosstalk glitches through downstream logic
// stages — the full-chip noise-propagation view of the paper's cited
// reference [15] (Shepard's Global Harmony coupled-noise analysis). A
// glitch that exceeds a receiver's noise margin does not stop at that pin:
// the receiving gate amplifies it into a pulse on its own output net, which
// may reach a latch several stages away.
//
// The analysis drives each receiving cell's characterized I–V surface with
// the incoming disturbance waveform, simulates the cell against the reduced
// model of its output net, and recurses along the design's fanout relation
// until the pulse dies out or hits a sequential element.
package noiseprop

import (
	"fmt"
	"math"

	"xtverify/internal/cellmodel"
	"xtverify/internal/circuit"
	"xtverify/internal/design"
	"xtverify/internal/devices"
	"xtverify/internal/extract"
	"xtverify/internal/mna"
	"xtverify/internal/prune"
	"xtverify/internal/romsim"
	"xtverify/internal/sympvl"
	"xtverify/internal/waveform"
)

// Stage is one hop of a propagation chain.
type Stage struct {
	// Net is the disturbed net's index; Name its name.
	Net  int
	Name string
	// Cell is the gate that produced this stage's disturbance (empty for
	// the injection stage).
	Cell string
	// PeakV is the signed disturbance peak on the net (relative to its
	// quiet level).
	PeakV float64
	// QuietHigh reports the net's assumed quiet level (the inverse of the
	// upstream stage's for inverting gates).
	QuietHigh bool
	// Latch marks nets feeding sequential elements: a surviving pulse here
	// is a potential state upset.
	Latch bool
}

// Result is the worst propagation chain from an injected glitch.
type Result struct {
	// Chain lists the stages, injection first.
	Chain []Stage
	// Depth is len(Chain)−1 (gate stages traversed).
	Depth int
	// ReachedLatch reports whether the pulse survived to a latch input
	// above the dying threshold.
	ReachedLatch bool
}

// Propagation settings.
const (
	// dieVolts is the amplitude below which a pulse is considered filtered
	// (~5 % of Vdd).
	dieVolts = 0.15
	// maxDepth bounds the recursion in gate stages.
	maxDepth = 6
	// tEnd and dt control each stage's transient.
	tEnd, dt = 4e-9, 2e-12
)

// Propagator runs noise propagation over one design.
type Propagator struct {
	par *extract.Parasitics
	// fanout[f] lists nets whose driver input is fed by net f.
	fanout [][]int
}

// New builds a propagator (the fanout relation is derived once).
func New(par *extract.Parasitics) *Propagator {
	p := &Propagator{par: par}
	p.fanout = make([][]int, len(par.Design.Nets))
	for _, n := range par.Design.Nets {
		for _, f := range n.Fanins {
			p.fanout[f] = append(p.fanout[f], n.Index)
		}
	}
	return p
}

// Propagate follows an injected disturbance on net victim (waveform at the
// victim's receivers, quiet level per quietHigh) through the fanout logic
// and returns the worst (deepest surviving) chain.
func (p *Propagator) Propagate(victim int, injected *waveform.Waveform, quietHigh bool) (*Result, error) {
	d := p.par.Design
	root := Stage{
		Net:       victim,
		Name:      d.Nets[victim].Name,
		PeakV:     peakOf(injected, quietLevel(quietHigh)),
		QuietHigh: quietHigh,
		Latch:     feedsLatch(d.Nets[victim]),
	}
	chain, reached, err := p.walk(victim, injected, quietHigh, 0)
	if err != nil {
		return nil, err
	}
	res := &Result{Chain: append([]Stage{root}, chain...)}
	res.Depth = len(res.Chain) - 1
	res.ReachedLatch = reached || (root.Latch && math.Abs(root.PeakV) >= dieVolts)
	return res, nil
}

// walk returns the worst downstream chain from the disturbance on net f.
func (p *Propagator) walk(f int, wave *waveform.Waveform, quietHigh bool, depth int) ([]Stage, bool, error) {
	if depth >= maxDepth {
		return nil, false, nil
	}
	d := p.par.Design
	var best []Stage
	bestReached := false
	for _, n := range p.fanout[f] {
		net := d.Nets[n]
		if net.IsBus() {
			continue // tri-state inputs are enable-gated; skip conservatively
		}
		cell := net.Drivers[0].Cell
		out, outQuietHigh, err := p.stageResponse(n, wave, quietHigh)
		if err != nil {
			return nil, false, fmt.Errorf("noiseprop: net %s: %w", net.Name, err)
		}
		peak := peakOf(out, quietLevel(outQuietHigh))
		if math.Abs(peak) < dieVolts {
			continue
		}
		st := Stage{
			Net: n, Name: net.Name, Cell: cell.Name,
			PeakV: peak, QuietHigh: outQuietHigh, Latch: feedsLatch(net),
		}
		sub, subReached, err := p.walk(n, out, outQuietHigh, depth+1)
		if err != nil {
			return nil, false, err
		}
		cand := append([]Stage{st}, sub...)
		reached := subReached || st.Latch
		if len(cand) > len(best) || (len(cand) == len(best) && reached && !bestReached) {
			best = cand
			bestReached = reached
		}
	}
	return best, bestReached, nil
}

// stageResponse drives net n's gate with the disturbance and returns the
// waveform at the net's first receiver plus the output quiet level.
func (p *Propagator) stageResponse(n int, in *waveform.Waveform, inQuietHigh bool) (*waveform.Waveform, bool, error) {
	d := p.par.Design
	rc := p.par.Nets[n]
	dcell := d.Nets[n].Drivers[0].Cell
	surf, err := cellmodel.CharacterizeIVSurface(dcell, 0, 0)
	if err != nil {
		return nil, false, err
	}
	// Output quiet level: inverting gates flip the input level.
	outQuietHigh := inQuietHigh
	if dcell.Polarity() < 0 {
		outQuietHigh = !inQuietHigh
	}
	// Build the single-net circuit (couplings grounded — the disturbance
	// under study arrives through the gate, not through this net's own
	// aggressors).
	ckt := prune.WireCircuit(p.par, "np_"+d.Nets[n].Name, []int{n})
	ckt.AddPort("drv", circuit.NodeID(rc.DriverNodes[0]), circuit.PortDriver, 0)
	obs := rc.DriverNodes[0]
	if len(rc.ReceiverNodes) > 0 {
		obs = rc.ReceiverNodes[0]
	}
	ckt.AddPort("rcv", circuit.NodeID(obs), circuit.PortReceiver, 0)
	sys, err := mna.FromCircuit(ckt, mna.Options{})
	if err != nil {
		return nil, false, err
	}
	model, err := sympvl.Reduce(sys, sympvl.Options{Order: 8})
	if err != nil {
		return nil, false, err
	}
	drv := &cellmodel.SurfaceDriver{Surface: surf, In: in.At}
	simRes, err := romsim.Simulate(model, []romsim.Termination{drv.Termination(), {}},
		romsim.Options{TEnd: tEnd, Dt: dt})
	if err != nil {
		return nil, false, err
	}
	return simRes.Ports[1], outQuietHigh, nil
}

func quietLevel(high bool) float64 {
	if high {
		return devices.Vdd025
	}
	return 0
}

func peakOf(w *waveform.Waveform, baseline float64) float64 {
	return w.PeakDeviation(baseline).Value
}

func feedsLatch(n *design.Net) bool {
	for _, r := range n.Receivers {
		if r.Cell.Sequential {
			return true
		}
	}
	return false
}
