package glitch

import (
	"context"
	"fmt"
	"sort"

	"xtverify/internal/prune"
)

// TimingImpact records the coupling-induced delay change of one victim net —
// the "timing recalculation" use of the driver models the paper's Section
// 4.2 calls out, and the chip-level generalization of Table 2.
type TimingImpact struct {
	Victim string
	// Rising selects the analyzed victim transition.
	Rising bool
	// BaseDelay is the decoupled (grounded-coupling) interconnect delay;
	// CoupledDelay has all aggressors switching opposite.
	BaseDelay, CoupledDelay float64
	// DeltaS = CoupledDelay − BaseDelay.
	DeltaS float64
	// DeteriorationPct is DeltaS/BaseDelay × 100.
	DeteriorationPct float64
	// BaseSlew and CoupledSlew are the receiver transition times.
	BaseSlew, CoupledSlew float64
	// Aggressors counts the cluster's aggressors.
	Aggressors int
}

// TimingImpactReport measures the worst-case coupling delay deterioration
// for every cluster, sorted by absolute delay change (largest first).
func (e *Engine) TimingImpactReport(clusters []*prune.Cluster, rising bool) ([]TimingImpact, error) {
	return e.TimingImpactReportContext(context.Background(), clusters, rising)
}

// TimingImpactReportContext is TimingImpactReport honoring context
// cancellation and deadlines in every per-cluster delay analysis.
func (e *Engine) TimingImpactReportContext(ctx context.Context, clusters []*prune.Cluster, rising bool) ([]TimingImpact, error) {
	return e.timingImpacts(ctx, clusters, rising)
}

// TimingImpactWorstEdge measures each cluster's coupling delay deterioration
// on both victim edges and keeps the worse one. The four delay transients
// per cluster run back to back, so the prepared layer diagonalizes the
// decoupled and coupled systems once each and reuses them across the edges
// (the two edges share a conductance pattern under ModelFixedR and for
// symmetric library cells). Sorted like TimingImpactReport.
func (e *Engine) TimingImpactWorstEdge(ctx context.Context, clusters []*prune.Cluster) ([]TimingImpact, error) {
	return e.timingImpacts(ctx, clusters, true, false)
}

// timingImpacts measures every cluster on each of the given victim edges,
// keeps each cluster's worst (the first edge wins ties), and sorts the
// result by delay change.
func (e *Engine) timingImpacts(ctx context.Context, clusters []*prune.Cluster, edges ...bool) ([]TimingImpact, error) {
	out := make([]TimingImpact, 0, len(clusters))
	for _, cl := range clusters {
		var worst TimingImpact
		for i, rising := range edges {
			ti, err := e.timingImpact(ctx, cl, rising)
			if err != nil {
				return nil, err
			}
			if i == 0 || ti.DeltaS > worst.DeltaS {
				worst = ti
			}
		}
		out = append(out, worst)
	}
	sortImpacts(out)
	return out, nil
}

// timingImpact runs the decoupled-baseline and coupled delay transients for
// one cluster and edge.
func (e *Engine) timingImpact(ctx context.Context, cl *prune.Cluster, rising bool) (TimingImpact, error) {
	base, err := e.AnalyzeDelayContext(ctx, cl, rising, false)
	if err != nil {
		return TimingImpact{}, fmt.Errorf("glitch: timing impact of %s (base): %w", e.Par.Design.Nets[cl.Victim].Name, err)
	}
	coupled, err := e.AnalyzeDelayContext(ctx, cl, rising, true)
	if err != nil {
		return TimingImpact{}, fmt.Errorf("glitch: timing impact of %s (coupled): %w", e.Par.Design.Nets[cl.Victim].Name, err)
	}
	ti := TimingImpact{
		Victim:       base.VictimName,
		Rising:       rising,
		BaseDelay:    base.Delay,
		CoupledDelay: coupled.Delay,
		DeltaS:       coupled.Delay - base.Delay,
		BaseSlew:     base.Slew,
		CoupledSlew:  coupled.Slew,
		Aggressors:   len(cl.Aggressors),
	}
	if base.Delay > 0 {
		ti.DeteriorationPct = 100 * ti.DeltaS / base.Delay
	}
	return ti, nil
}

func sortImpacts(out []TimingImpact) {
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].DeltaS, out[j].DeltaS
		if di != dj {
			return di > dj
		}
		return out[i].Victim < out[j].Victim
	})
}
