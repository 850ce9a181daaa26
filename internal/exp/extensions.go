package exp

import (
	"context"
	"fmt"
	"strings"

	"xtverify/internal/dsp"
	"xtverify/internal/em"
	"xtverify/internal/extract"
	"xtverify/internal/glitch"
	"xtverify/internal/prune"
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

// EMStudyResult is the electromigration current audit across the design.
type EMStudyResult struct {
	Results    []*em.Result
	Violations int
}

// RunEMStudy audits driver currents across the synthetic DSP.
func RunEMStudy(cfg dsp.Config, activityHz float64, maxNets int) (*EMStudyResult, error) {
	if cfg.Channels == 0 {
		cfg = dsp.DefaultConfig()
	}
	d, err := dsp.Generate(cfg)
	if err != nil {
		return nil, err
	}
	par, err := extract.Extract(d, extract.Tech025())
	if err != nil {
		return nil, err
	}
	rs, err := em.AnalyzeDesign(par, em.Options{ActivityHz: activityHz})
	if err != nil {
		return nil, err
	}
	if maxNets > 0 && len(rs) > maxNets {
		rs = rs[:maxNets]
	}
	out := &EMStudyResult{Results: rs}
	for _, r := range rs {
		if r.Violated() {
			out.Violations++
		}
	}
	return out, nil
}

// Render prints the worst utilizations.
func (r *EMStudyResult) Render() string {
	var b strings.Builder
	b.WriteString("Electromigration current audit (avg/RMS/peak vs width limits)\n")
	fmt.Fprintf(&b, "%-24s %-10s %9s %9s %9s\n", "net", "driver", "Iavg(mA)", "Irms(mA)", "Ipk(mA)")
	n := len(r.Results)
	if n > 10 {
		n = 10
	}
	for _, res := range r.Results[:n] {
		mark := ""
		if res.Violated() {
			mark = "  << VIOLATION"
		}
		fmt.Fprintf(&b, "%-24s %-10s %9.3f %9.3f %9.3f%s\n",
			res.Net, res.DriverCell, res.IAvgA*1e3, res.IRMSA*1e3, res.IPeakA*1e3, mark)
	}
	fmt.Fprintf(&b, "nets audited: %d, violations: %d\n", len(r.Results), r.Violations)
	return b.String()
}

var _ = prune.DefaultOptions
