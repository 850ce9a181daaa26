package glitch

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"xtverify/internal/cells"
	"xtverify/internal/circuit"
	"xtverify/internal/prune"
)

// Fix enumerates the repair strategies the advisor evaluates. They are the
// standard signal-integrity ECO menu: make the victim harder to disturb,
// move the aggressors away, or put grounded metal between them.
type Fix int

// Repair strategies.
const (
	// FixUpsizeDriver replaces the victim's holding driver with the next
	// stronger cell of the same family.
	FixUpsizeDriver Fix = iota
	// FixDoubleSpacing re-routes the victim at twice the spacing, halving
	// every coupling capacitance into it.
	FixDoubleSpacing
	// FixShieldVictim inserts grounded shield wires: the victim's coupling
	// capacitances become capacitances to ground.
	FixShieldVictim
)

func (f Fix) String() string {
	switch f {
	case FixUpsizeDriver:
		return "upsize-driver"
	case FixDoubleSpacing:
		return "double-spacing"
	case FixShieldVictim:
		return "shield-victim"
	default:
		return fmt.Sprintf("fix(%d)", int(f))
	}
}

// RepairOption is one evaluated fix.
type RepairOption struct {
	Fix Fix
	// Detail names the concrete change (e.g. the replacement cell).
	Detail string
	// PeakV is the re-simulated glitch peak with the fix applied.
	PeakV float64
	// Clears reports whether the fix brings the peak under the threshold.
	Clears bool
	// Feasible is false when the fix does not apply (e.g. no stronger cell
	// exists).
	Feasible bool
}

// RepairAdvice is the advisor's output for one violating victim.
type RepairAdvice struct {
	Victim string
	// OriginalPeakV is the unfixed glitch.
	OriginalPeakV float64
	// ThresholdV is the pass level used for Clears.
	ThresholdV float64
	// Options lists the evaluated fixes, most effective first.
	Options []RepairOption
}

// Recommended returns the first clearing option, or nil.
func (a *RepairAdvice) Recommended() *RepairOption {
	for i := range a.Options {
		if a.Options[i].Feasible && a.Options[i].Clears {
			return &a.Options[i]
		}
	}
	return nil
}

// AdviseRepairs re-simulates the cluster under each candidate fix and ranks
// the outcomes. thresholdV is the acceptable peak magnitude.
func (e *Engine) AdviseRepairs(cl *prune.Cluster, glitchRising bool, thresholdV float64) (*RepairAdvice, error) {
	return e.AdviseRepairsContext(context.Background(), cl, glitchRising, thresholdV)
}

// AdviseRepairsContext is AdviseRepairs honoring context cancellation and
// deadlines in the base analysis and every candidate run. The base analysis
// and the driver-upsize candidate share the cluster circuit and its
// reduction, so on the prepared path they advance as one batched multi-RHS
// sweep; the circuit-editing candidates (respace, shield) change the model
// and run one-shot.
func (e *Engine) AdviseRepairsContext(ctx context.Context, cl *prune.Cluster, glitchRising bool, thresholdV float64) (*RepairAdvice, error) {
	stronger := cells.NextStronger(e.strongestCell(cl.Victim))
	specs := []glitchScenario{{glitchRising: glitchRising}}
	if stronger != nil {
		specs = append(specs, glitchScenario{glitchRising: glitchRising, victimCell: stronger})
	}
	results, idx, err := e.analyzeGlitch(ctx, cl, nil, specs)
	if err != nil {
		if idx == 1 {
			return nil, fmt.Errorf("glitch: repair upsize: %w", err)
		}
		return nil, err
	}
	base := results[0]
	advice := &RepairAdvice{
		Victim:        base.VictimName,
		OriginalPeakV: base.PeakV,
		ThresholdV:    thresholdV,
	}
	victimName := e.Par.Design.Nets[cl.Victim].Name

	// Candidate 1: upsize the victim's holding driver.
	if stronger != nil {
		advice.Options = append(advice.Options, option(FixUpsizeDriver, stronger.Name, results[1].PeakV, thresholdV))
	} else {
		advice.Options = append(advice.Options, RepairOption{Fix: FixUpsizeDriver, Detail: "no stronger cell", Feasible: false})
	}

	// Candidate 2: double the spacing (coupling halves with distance).
	respace := func(ckt *circuit.Circuit) *circuit.Circuit {
		out := ckt.Clone()
		for i := range out.Capacitors {
			c := &out.Capacitors[i]
			if c.Coupling && touchesNet(out, *c, victimName) {
				c.Farads /= 2
			}
		}
		return out
	}
	res, _, err := e.analyzeGlitch(ctx, cl, respace, specs[:1])
	if err != nil {
		return nil, fmt.Errorf("glitch: repair respace: %w", err)
	}
	advice.Options = append(advice.Options, option(FixDoubleSpacing, "2x pitch", res[0].PeakV, thresholdV))

	// Candidate 3: shield insertion — victim couplings become ground caps.
	shield := func(ckt *circuit.Circuit) *circuit.Circuit {
		return ckt.GroundCoupling(func(_ int, c circuit.Capacitor) bool {
			return !touchesNet(ckt, c, victimName)
		})
	}
	res, _, err = e.analyzeGlitch(ctx, cl, shield, specs[:1])
	if err != nil {
		return nil, fmt.Errorf("glitch: repair shield: %w", err)
	}
	advice.Options = append(advice.Options, option(FixShieldVictim, "grounded shield", res[0].PeakV, thresholdV))

	sort.SliceStable(advice.Options, func(i, j int) bool {
		oi, oj := advice.Options[i], advice.Options[j]
		if oi.Feasible != oj.Feasible {
			return oi.Feasible
		}
		return abs(oi.PeakV) < abs(oj.PeakV)
	})
	return advice, nil
}

func option(f Fix, detail string, peak, threshold float64) RepairOption {
	return RepairOption{
		Fix: f, Detail: detail, PeakV: peak,
		Clears:   abs(peak) < threshold,
		Feasible: true,
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// touchesNet reports whether either terminal of the capacitor belongs to
// the named net (cluster node names are "<net>:<index>").
func touchesNet(ckt *circuit.Circuit, c circuit.Capacitor, net string) bool {
	prefix := net + ":"
	if c.A != circuit.Ground && strings.HasPrefix(ckt.NodeName(c.A), prefix) {
		return true
	}
	if c.B != circuit.Ground && strings.HasPrefix(ckt.NodeName(c.B), prefix) {
		return true
	}
	return false
}
