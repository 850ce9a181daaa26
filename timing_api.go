package xtverify

import (
	"context"
	"fmt"
	"io"

	"xtverify/internal/glitch"
	"xtverify/internal/prune"
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

// timingEngine is the glitch engine both timing analyses run: the run's
// policy with the transient lengthened to 8 ns, twice the glitch default, so
// a coupling-slowed victim edge still crosses Vdd/2 before it ends.
func (v *Verifier) timingEngine() *glitch.Engine {
	opt := v.baseGlitchOptions()
	opt.TEnd = 8e-9
	return glitch.NewEngine(v.par, opt)
}

// RunTimingImpact performs the chip-level timing recalculation: every
// coupled victim's interconnect delay is re-evaluated with aggressors
// switching opposite (worst case) and compared against the decoupled
// baseline. Results are sorted by absolute delay change, worst first.
// rising selects the analyzed victim edge.
func (v *Verifier) RunTimingImpact(rising bool) ([]TimingImpact, error) {
	return v.RunTimingImpactContext(context.Background(), rising)
}

// RunTimingImpactContext is RunTimingImpact with cancellation: ctx aborts the
// per-victim delay recalculation between clusters and the partial work is
// discarded.
func (v *Verifier) RunTimingImpactContext(ctx context.Context, rising bool) ([]TimingImpact, error) {
	if err := v.requireMaterialized("RunTimingImpact"); err != nil {
		return nil, err
	}
	clusters := prune.Clusters(v.par, v.pruneOptions())
	impacts, err := v.timingEngine().TimingImpactReportContext(ctx, clusters, rising)
	if err != nil {
		return nil, err
	}
	out := make([]TimingImpact, 0, len(impacts))
	for _, ti := range impacts {
		out = append(out, TimingImpact{
			Victim:           ti.Victim,
			BaseDelayPS:      ti.BaseDelay * 1e12,
			CoupledDelayPS:   ti.CoupledDelay * 1e12,
			DeteriorationPct: ti.DeteriorationPct,
			Aggressors:       ti.Aggressors,
		})
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
// (sta.Annotate / the loader's STA pass) first.
func (v *Verifier) RefineTimingWindows(ctx context.Context) (int, error) {
	if err := v.requireMaterialized("RefineTimingWindows"); err != nil {
		return 0, err
	}
	clusters := prune.Clusters(v.par, v.pruneOptions())
	impacts, err := v.timingEngine().TimingImpactWorstEdge(ctx, clusters)
	if err != nil {
		return 0, err
	}
	adj := make([]sta.WindowAdjustment, 0, len(impacts))
	for _, ti := range impacts {
		net, ok := v.des.NetByName(ti.Victim)
		if !ok {
			return 0, fmt.Errorf("xtverify: timing impact names unknown net %q", ti.Victim)
		}
		adj = append(adj, sta.WindowAdjustment{Net: net.Index, DeltaS: ti.DeltaS})
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
