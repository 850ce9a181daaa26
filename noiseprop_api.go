package xtverify

import (
	"context"

	"xtverify/internal/glitch"
	"xtverify/internal/noiseprop"
)

// PropagationStage is one hop of a glitch propagation chain.
type PropagationStage struct {
	// Net is the disturbed net; Cell the gate that produced the
	// disturbance ("" for the injection stage).
	Net, Cell string
	// PeakV is the signed disturbance peak relative to the net's quiet
	// level.
	PeakV float64
	// LatchInput marks nets feeding sequential elements.
	LatchInput bool
}

// PropagationTrace is the worst chain a victim's crosstalk glitch takes
// through downstream logic.
type PropagationTrace struct {
	// Stages lists the chain, injection first.
	Stages []PropagationStage
	// Depth is the number of gate stages traversed.
	Depth int
	// ReachesLatch reports whether the pulse survives to a latch input —
	// the state-upset scenario of the paper's introduction.
	ReachesLatch bool
}

// TraceGlitch analyzes the named victim's worst crosstalk glitch and then
// follows it through the design's fanout logic (the noise-propagation
// analysis of the paper's reference [15]): each downstream gate is driven
// with the disturbance waveform through its characterized I–V surface and
// the pulse is chased until it dies or reaches a latch.
func (v *Verifier) TraceGlitch(victim string) (*PropagationTrace, error) {
	return v.TraceGlitchContext(context.Background(), victim)
}

// TraceGlitchContext is TraceGlitch with cancellation: ctx aborts the glitch
// analysis of both polarities before the propagation walk starts.
func (v *Verifier) TraceGlitchContext(ctx context.Context, victim string) (*PropagationTrace, error) {
	if err := v.requireMaterialized("TraceGlitch"); err != nil {
		return nil, err
	}
	cl, err := v.victimCluster(victim)
	if err != nil {
		return nil, err
	}
	rise, fall, err := glitch.NewEngine(v.par, v.baseGlitchOptions()).AnalyzeGlitchPairContext(ctx, cl)
	if err != nil {
		return nil, err
	}
	// Worse polarity wins.
	res, quietHigh := rise, false
	if -fall.PeakV > rise.PeakV {
		res, quietHigh = fall, true
	}
	prop := noiseprop.New(v.par)
	out, err := prop.Propagate(cl.Victim, res.ReceiverWave, quietHigh)
	if err != nil {
		return nil, err
	}
	trace := &PropagationTrace{Depth: out.Depth, ReachesLatch: out.ReachedLatch}
	for _, st := range out.Chain {
		trace.Stages = append(trace.Stages, PropagationStage{
			Net: st.Name, Cell: st.Cell, PeakV: st.PeakV, LatchInput: st.Latch,
		})
	}
	return trace, nil
}
