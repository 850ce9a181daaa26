// Package sta is a lightweight static timing analyzer whose only job in the
// verification flow is to attach switching windows ([early, late] arrival
// ranges plus driver input slews) to every net. The paper uses this timing
// correlation information to exclude aggressors that cannot switch while the
// victim is sensitive, tightening the otherwise worst-case analysis.
//
// The delay model is deliberately simple — an effective-resistance gate
// delay against the extracted net capacitance plus an Elmore wire term — but
// it produces the structurally correct windows the pruning and alignment
// policies need.
package sta

import (
	"fmt"
	"math"

	"xtverify/internal/cells"
	"xtverify/internal/design"
	"xtverify/internal/extract"
)

// The standard 0.25 µm timing settings.
const (
	// clockPeriod is the launch period (seconds); windows are not folded,
	// the period only scales the sequential launch uncertainty.
	clockPeriod = 5e-9
	// clkToQMin and clkToQMax bound sequential output launch times.
	clkToQMin, clkToQMax = 80e-12, 250e-12
	// intrinsicDelay is the per-gate fixed delay floor.
	intrinsicDelay = 25e-12
	// defaultSlew is used at launch points.
	defaultSlew = 120e-12
)

// Annotate computes and stores a switching window on every net of the
// design, using the extracted capacitances as loads. It returns an error on
// combinational cycles.
func Annotate(d *design.Design, par *extract.Parasitics) error {
	n := len(d.Nets)
	if par == nil || len(par.Nets) != n {
		return fmt.Errorf("sta: parasitics do not match design")
	}
	// Topological order over the fanin DAG (Kahn).
	indeg := make([]int, n)
	fanout := make([][]int, n)
	for i, net := range d.Nets {
		for _, f := range net.Fanins {
			if f < 0 || f >= n {
				return fmt.Errorf("sta: net %q fanin %d out of range", net.Name, f)
			}
			indeg[i]++
			fanout[f] = append(fanout[f], i)
		}
	}
	queue := make([]int, 0, n)
	for i, deg := range indeg {
		if deg == 0 {
			queue = append(queue, i)
		}
	}
	processed := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		processed++
		net := d.Nets[i]
		early, late, slew := launchWindow(net)
		if len(net.Fanins) > 0 {
			early, late = math.Inf(1), math.Inf(-1)
			slew = 0
			for _, f := range net.Fanins {
				w := d.Nets[f].Window
				early = math.Min(early, w.Early)
				late = math.Max(late, w.Late)
				slew = math.Max(slew, w.Slew)
			}
		}
		gd, outSlew := gateDelay(net, par.Nets[i], slew)
		net.Window = design.Window{
			Early: early + gd,
			Late:  late + gd,
			Slew:  outSlew,
			Valid: true,
		}
		for _, o := range fanout[i] {
			indeg[o]--
			if indeg[o] == 0 {
				queue = append(queue, o)
			}
		}
	}
	if processed != n {
		return fmt.Errorf("sta: combinational cycle detected (%d of %d nets ordered)", processed, n)
	}
	return nil
}

// WindowAdjustment widens one net's switching window by a coupling-induced
// delay change, re-aligning the STA view with the coupling-aware transient
// delays.
type WindowAdjustment struct {
	// Net is the design net index.
	Net int
	// DeltaS is the worst-case coupled delay change in seconds: positive
	// (aggressors opposing) extends the Late bound, negative (a coupling
	// speedup) pulls the Early bound in. Either way the window only widens —
	// re-alignment must stay conservative for the pruning policies that
	// consume it.
	DeltaS float64
}

// ApplyCouplingDeltas folds coupling-induced delay changes back into the
// annotated switching windows: one crosstalk-aware STA re-alignment pass.
// Nets without a valid window (or a zero delta) are skipped; the number of
// windows actually widened is returned. Call after Annotate.
func ApplyCouplingDeltas(d *design.Design, adj []WindowAdjustment) (int, error) {
	changed := 0
	for _, a := range adj {
		if a.Net < 0 || a.Net >= len(d.Nets) {
			return changed, fmt.Errorf("sta: adjustment net %d out of range", a.Net)
		}
		w := &d.Nets[a.Net].Window
		if !w.Valid || a.DeltaS == 0 {
			continue
		}
		if a.DeltaS > 0 {
			w.Late += a.DeltaS
		} else {
			w.Early += a.DeltaS
		}
		changed++
	}
	return changed, nil
}

// launchWindow gives the arrival window at the driver input for nets without
// fanins: clock nets launch at the edge; sequential outputs launch after
// clk-to-q; primary-input-like nets get the full early clock region.
func launchWindow(net *design.Net) (early, late, slew float64) {
	if net.ClockNet {
		return 0, 20e-12, defaultSlew / 2
	}
	drv := net.Drivers[0].Cell
	if drv.Sequential {
		return clkToQMin, clkToQMax, defaultSlew
	}
	return 0, 0.1 * clockPeriod, defaultSlew
}

// gateDelay estimates driver gate delay and output slew against the
// extracted load, including an Elmore wire term to the farthest receiver.
func gateDelay(net *design.Net, rc *extract.NetRC, inSlew float64) (delay, outSlew float64) {
	load := rc.TotalCapF()
	// Use the cheaper closed-form drive resistance (characterization-free)
	// for STA; the detailed models are reserved for cluster analysis.
	drv := net.Drivers[net.StrongestDriver()].Cell
	r := cells.EstimateDriveResistance(drv, true)
	if rf := cells.EstimateDriveResistance(drv, false); rf > r {
		r = rf // pessimistic edge
	}
	const ln2 = 0.6931471805599453
	wire := elmoreWorst(rc)
	delay = intrinsicDelay + inSlew/4 + ln2*(r*load+wire)
	outSlew = 2 * (ln2*r*load + wire)
	if outSlew < defaultSlew/2 {
		outSlew = defaultSlew / 2
	}
	return delay, outSlew
}

// elmoreWorst returns a worst-receiver Elmore wire delay approximation:
// total wire resistance times half the total capacitance.
func elmoreWorst(rc *extract.NetRC) float64 {
	rTot := 0.0
	for _, r := range rc.Res {
		rTot += r.Ohms
	}
	return rTot * rc.TotalCapF() / 2
}
