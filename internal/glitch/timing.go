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

// DelayImpact runs the decoupled-baseline and coupled delay transients for
// one cluster and victim edge. Run a cluster's edges back to back on one
// engine: the prepared memo then diagonalizes the decoupled and coupled
// systems once each and reuses them across the edges whenever the edges
// share a conductance pattern (always under ModelFixedR, and for symmetric
// library cells).
func (e *Engine) DelayImpact(ctx context.Context, cl *prune.Cluster, rising bool) (TimingImpact, error) {
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

// SortImpacts orders impacts by delay change, largest first, then by victim
// name — a total order, so the result does not depend on the order the
// clusters were analyzed in.
func SortImpacts(out []TimingImpact) {
	sort.Slice(out, func(i, j int) bool {
		di, dj := out[i].DeltaS, out[j].DeltaS
		if di != dj {
			return di > dj
		}
		return out[i].Victim < out[j].Victim
	})
}
