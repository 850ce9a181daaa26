package exp

import (
	"fmt"
	"math"
	"strings"

	"xtverify/internal/dsp"
	"xtverify/internal/glitch"
	"xtverify/internal/noiseprop"
	"xtverify/internal/stats"
)

// PropagationResult is the chip-level noise-propagation study: for every
// victim whose glitch clears the reporting floor, how far does the pulse
// travel through downstream logic, and how many reach latch inputs?
type PropagationResult struct {
	// VictimsTraced is the number of glitches followed.
	VictimsTraced int
	// DepthHistogram counts chains by gate depth.
	DepthHistogram *stats.Histogram
	// Filtered counts glitches the first receiver already killed.
	Filtered int
	// ReachedLatch counts pulses surviving to a latch input.
	ReachedLatch int
	// WorstChain names the deepest surviving chain.
	WorstChain []string
}

// RunPropagation executes the study.
func RunPropagation(cfg dsp.Config, maxVictims int, thresholdFrac float64) (*PropagationResult, error) {
	if cfg.Channels == 0 {
		cfg = dsp.DefaultConfig()
	}
	if maxVictims == 0 {
		maxVictims = 60
	}
	if thresholdFrac == 0 {
		thresholdFrac = 0.10
	}
	par, clusters, err := dspPopulation(cfg, 12)
	if err != nil {
		return nil, err
	}
	if err := warmCells(par, clusters); err != nil {
		return nil, err
	}
	eng := glitch.NewEngine(par, glitch.Options{
		Model: glitch.ModelNonlinear, TEnd: 4e-9, Dt: 2e-12, OrderFactor: 3,
	})
	prop := noiseprop.New(par)
	res := &PropagationResult{DepthHistogram: stats.NewHistogram(0, 6, 6)}
	worstDepth := -1
	for _, cl := range clusters {
		if res.VictimsTraced >= maxVictims {
			break
		}
		g, err := eng.AnalyzeGlitch(cl, true)
		if err != nil {
			return nil, fmt.Errorf("exp: propagation victim %s: %w", par.Design.Nets[cl.Victim].Name, err)
		}
		if math.Abs(g.PeakV) < thresholdFrac*glitch.Vdd {
			continue
		}
		trace, err := prop.Propagate(cl.Victim, g.ReceiverWave, false)
		if err != nil {
			return nil, err
		}
		res.VictimsTraced++
		res.DepthHistogram.Add(float64(trace.Depth))
		if trace.Depth == 0 {
			res.Filtered++
		}
		if trace.ReachedLatch {
			res.ReachedLatch++
		}
		if trace.Depth > worstDepth {
			worstDepth = trace.Depth
			res.WorstChain = res.WorstChain[:0]
			for _, st := range trace.Chain {
				res.WorstChain = append(res.WorstChain, fmt.Sprintf("%s(%.2fV)", st.Name, st.PeakV))
			}
		}
	}
	return res, nil
}

// Render prints the study.
func (r *PropagationResult) Render() string {
	var b strings.Builder
	b.WriteString("Noise propagation through fanout logic (glitches above the reporting floor)\n")
	b.WriteString(r.DepthHistogram.Render("propagation depth (gate stages)", 40))
	fmt.Fprintf(&b, "victims traced: %d   filtered at first receiver: %d   reached a latch input: %d\n",
		r.VictimsTraced, r.Filtered, r.ReachedLatch)
	if len(r.WorstChain) > 0 {
		fmt.Fprintf(&b, "deepest chain: %s\n", strings.Join(r.WorstChain, " -> "))
	}
	return b.String()
}
