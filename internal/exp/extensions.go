package exp

import (
	"context"
	"fmt"
	"strings"

	"xtverify/internal/dsp"
	"xtverify/internal/glitch"
	"xtverify/internal/stats"
)

// TimingImpactResult is the chip-level timing recalculation study (the
// Section 4.2 "timing recalculation" application; the chip-scale Table 2).
type TimingImpactResult struct {
	Impacts []glitch.TimingImpact
	// DeteriorationPct summarizes the relative delay increases.
	DeterioratePct stats.Summary
	// WorstDeltaPS is the largest absolute delay change.
	WorstDeltaPS float64
}

// RunTimingImpact measures the coupled-vs-decoupled rising delay of every
// cluster victim in the design.
func RunTimingImpact(cfg dsp.Config, maxVictims int) (*TimingImpactResult, error) {
	if cfg.Channels == 0 {
		cfg = dsp.DefaultConfig()
	}
	par, clusters, err := dspPopulation(cfg, 12)
	if err != nil {
		return nil, err
	}
	if maxVictims > 0 && len(clusters) > maxVictims {
		clusters = clusters[:maxVictims]
	}
	eng := glitch.NewEngine(par, glitch.Options{
		Model: glitch.ModelTimingLibrary, TEnd: 8e-9, Dt: 2e-12, OrderFactor: 3,
	})
	impacts := make([]glitch.TimingImpact, len(clusters))
	for i, cl := range clusters {
		//xtlint:background a repro study runs to completion; no caller holds a context
		if impacts[i], err = eng.DelayImpact(context.Background(), cl, true); err != nil {
			return nil, err
		}
	}
	glitch.SortImpacts(impacts)
	res := &TimingImpactResult{Impacts: impacts}
	var pct []float64
	for _, ti := range impacts {
		pct = append(pct, ti.DeteriorationPct)
		if d := ti.DeltaS * 1e12; d > res.WorstDeltaPS {
			res.WorstDeltaPS = d
		}
	}
	res.DeterioratePct = stats.Summarize(pct)
	return res, nil
}

// Render prints the worst offenders and the distribution summary.
func (r *TimingImpactResult) Render() string {
	var b strings.Builder
	b.WriteString("Chip-level timing recalculation: coupling-induced delay changes (rising)\n")
	fmt.Fprintf(&b, "%-24s %12s %14s %8s %6s\n", "victim", "base (ps)", "coupled (ps)", "worse", "aggr")
	n := len(r.Impacts)
	if n > 10 {
		n = 10
	}
	for _, ti := range r.Impacts[:n] {
		fmt.Fprintf(&b, "%-24s %12.1f %14.1f %+7.0f%% %6d\n",
			ti.Victim, ti.BaseDelay*1e12, ti.CoupledDelay*1e12, ti.DeteriorationPct, ti.Aggressors)
	}
	fmt.Fprintf(&b, "victims: %d   mean deterioration %.0f%%   p90 %.0f%%   worst Δ %.0f ps\n",
		len(r.Impacts), r.DeterioratePct.Mean, r.DeterioratePct.P90, r.WorstDeltaPS)
	return b.String()
}
