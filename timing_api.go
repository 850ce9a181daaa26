package xtverify

import (
	"context"
	"fmt"
	"io"

	"xtverify/internal/glitch"
	"xtverify/internal/sta"
)

// TimingImpact is the coupling-induced delay change of one victim net.
type TimingImpact struct {
	Victim string
	// BaseDelayPS and CoupledDelayPS are the decoupled and worst-case
	// (opposite-switching aggressors) interconnect delays in picoseconds.
	BaseDelayPS, CoupledDelayPS float64
	// DeteriorationPct is the relative delay increase.
	DeteriorationPct float64
	// Aggressors counts the coupled neighbours considered.
	Aggressors int
}

// delayImpacts runs the strict delay-impact analysis of every cluster on the
// cluster executor and returns the jobs in victim order, each keeping its
// worst edge (the first wins ties). A cluster's edges run back to back on
// one glitch engine, so the prepared memo saves work across them.
func (v *Verifier) delayImpacts(ctx context.Context, edges ...bool) ([]*engineJob, error) {
	opts := v.baseGlitchOptions()
	// Twice the glitch transient, so a coupling-slowed victim edge still
	// crosses Vdd/2 before it ends.
	opts.TEnd = 8e-9
	v.setupEngineCaches(&opts)
	jobs, _, err := v.runClusters(ctx, runParams{workers: v.cfg.Workers}, func(ctx context.Context, u clusterUnit) *clusterResult {
		eng := glitch.NewEngine(u.par, opts)
		worst := &glitch.TimingImpact{}
		for i, rising := range edges {
			ti, err := eng.DelayImpact(ctx, u.cl, rising)
			if err != nil {
				return &clusterResult{err: err}
			}
			if i == 0 || ti.DeltaS > worst.DeltaS {
				*worst = ti
			}
		}
		return &clusterResult{impact: worst}
	})
	return jobs, err
}

// RunTimingImpact performs the chip-level timing recalculation: every
// coupled victim's interconnect delay is re-evaluated with aggressors
// switching opposite (worst case) and compared against the decoupled
// baseline. Results are sorted by absolute delay change, worst first.
// rising selects the analyzed victim edge.
func (v *Verifier) RunTimingImpact(rising bool) ([]TimingImpact, error) {
	return v.RunTimingImpactContext(context.Background(), rising)
}

// RunTimingImpactContext is RunTimingImpact with cancellation: ctx aborts
// the analysis and the partial work is discarded. It runs on Config.Workers,
// streamed verifiers included, with results independent of both.
func (v *Verifier) RunTimingImpactContext(ctx context.Context, rising bool) ([]TimingImpact, error) {
	jobs, err := v.delayImpacts(ctx, rising)
	if err != nil {
		return nil, err
	}
	impacts := make([]glitch.TimingImpact, len(jobs))
	for i, j := range jobs {
		impacts[i] = *j.res.impact
	}
	glitch.SortImpacts(impacts)
	out := make([]TimingImpact, len(impacts))
	for i, ti := range impacts {
		out[i] = TimingImpact{
			Victim:           ti.Victim,
			BaseDelayPS:      ti.BaseDelay * 1e12,
			CoupledDelayPS:   ti.CoupledDelay * 1e12,
			DeteriorationPct: ti.DeteriorationPct,
			Aggressors:       ti.Aggressors,
		}
	}
	return out, nil
}

// RefineTimingWindows performs one crosstalk-aware STA re-alignment pass:
// every coupled victim's worst-edge coupling delay change — measured by the
// prepared-transient delay engine, both victim edges against the decoupled
// baseline — is folded back into its annotated switching window (a coupled
// slowdown extends Late, a speedup pulls Early in). It returns the number of
// windows widened. Subsequent runs with Config.UseTimingWindows observe the
// refined, conservatively wider windows. The design must have been annotated
// (sta.Annotate / the loader's STA pass) first, so a streamed verifier fails
// with ErrStreamIngest.
func (v *Verifier) RefineTimingWindows(ctx context.Context) (int, error) {
	if err := v.requireMaterialized("RefineTimingWindows"); err != nil {
		return 0, err
	}
	jobs, err := v.delayImpacts(ctx, true, false)
	if err != nil {
		return 0, err
	}
	adj := make([]sta.WindowAdjustment, len(jobs))
	for i, j := range jobs {
		adj[i] = sta.WindowAdjustment{Net: j.victim, DeltaS: j.res.impact.DeltaS}
	}
	return sta.ApplyCouplingDeltas(v.des, adj)
}

// WriteTimingText renders a timing-impact report (top n rows; n ≤ 0 prints
// everything).
func WriteTimingText(w io.Writer, impacts []TimingImpact, n int) error {
	if n <= 0 || n > len(impacts) {
		n = len(impacts)
	}
	if _, err := fmt.Fprintf(w, "%-24s %12s %14s %8s %6s\n",
		"victim", "base (ps)", "coupled (ps)", "worse", "aggr"); err != nil {
		return err
	}
	for _, ti := range impacts[:n] {
		fmt.Fprintf(w, "%-24s %12.1f %14.1f %+7.0f%% %6d\n",
			ti.Victim, ti.BaseDelayPS, ti.CoupledDelayPS, ti.DeteriorationPct, ti.Aggressors)
	}
	return nil
}
