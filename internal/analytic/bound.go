// Rung-0 screening: a conservative multi-aggressor glitch bound computed
// from a pruned cluster's lumped totals, cheap enough to evaluate before any
// MNA assembly or model order reduction.
//
// The bound superposes, per aggressor, the smaller of two classical upper
// bounds — the charge-share divider (Vittal-style, aggressor infinitely
// fast) and the Devgan slow-ramp metric (holding resistance times coupled
// ramp current, inflated for distributed-victim back-action; see
// BoundLumped) — under worst-case alignment (every aggressor switches the
// same direction at the same instant, which dominates any real alignment by
// superposition in the linearized cluster). Both terms are monotone
// nondecreasing in every lumped input they consume (coupling capacitance,
// holding/wire resistance, supply, inverse slew), so lumping the distributed
// victim into totals errs on the conservative side; the whole sum is capped
// at Vdd, the absolute ceiling any passive RC deviation can reach. The
// conservatism contract (bound ≥ simulated peak, both driver models, both
// polarities) is property-tested in bound_test.go across randomized
// clusters.
package analytic

import (
	"errors"
	"fmt"
	"math"

	"xtverify/internal/cells"
	"xtverify/internal/devices"
	"xtverify/internal/extract"
	"xtverify/internal/prune"
)

// ErrCannotScreen reports a cluster whose lumped inputs are degenerate or
// non-finite: no conservative bound can be stated, and the caller must fall
// through to detailed analysis rather than trust a bogus number.
var ErrCannotScreen = errors.New("analytic: cannot screen cluster")

// DriverModel is cells.DriverModel, the enum the glitch engine attaches its
// driver models by, so the screen bounds exactly the model the detailed flow
// would use.
type DriverModel = cells.DriverModel

// Driver model families. Under DriverNonlinear the bound falls back to
// closed-form device-current estimates for the holding resistance and
// derates the table transition time (a nonlinear output can slew faster than
// its 20–80 % figure suggests mid-swing).
const (
	DriverFixedR        = cells.DriverFixedR
	DriverTimingLibrary = cells.DriverTimingLibrary
	DriverNonlinear     = cells.DriverNonlinear
)

// nonlinearSlewDerate shrinks the table output-transition time when bounding
// a nonlinear driver's maximum output slope: the device waveform's
// instantaneous slope mid-swing exceeds the full-swing-equivalent average
// that the NLDM table records.
const nonlinearSlewDerate = 0.5

// BoundOptions parameterizes BoundCluster.
type BoundOptions struct {
	// Model selects the driver-model family the detailed flow would use.
	Model DriverModel
	// FixedOhms is the drive resistance for DriverFixedR (default
	// cells.DefaultFixedOhms).
	FixedOhms float64
	// Vdd is the supply (default the bundled technology's devices.Vdd025).
	Vdd float64
}

func (o *BoundOptions) setDefaults() {
	if o.FixedOhms == 0 {
		o.FixedOhms = cells.DefaultFixedOhms
	}
	if o.Vdd == 0 {
		o.Vdd = devices.Vdd025
	}
}

// VictimLump is the victim side of the lumped cluster view.
type VictimLump struct {
	// WireOhms is the victim's total wire resistance.
	WireOhms float64
	// GroundCapF is the victim's total grounded capacitance: wire and pin
	// caps plus every coupling that pruning grounded.
	GroundCapF float64
	// HoldOhms is a worst-case (largest over both rails) effective holding
	// resistance of the victim's active driver.
	HoldOhms float64
}

// AggressorLump is one aggressor's lumped view.
type AggressorLump struct {
	// CouplingF is the retained coupling capacitance into the victim.
	CouplingF float64
	// SlewS lower-bounds the aggressor's output transition time (full
	// swing), so Vdd/SlewS upper-bounds its output slope.
	SlewS float64
}

// BoundLumped computes the worst-case-aligned superposition bound from
// already-lumped inputs. It is the pure core of BoundCluster, separated so
// the fuzz/property suite can drive it with arbitrary values: every
// degenerate or non-finite input yields ErrCannotScreen, never a bogus
// bound.
func BoundLumped(v VictimLump, aggs []AggressorLump, vdd float64) (float64, error) {
	if !isFinite(v.WireOhms) || !isFinite(v.GroundCapF) || !isFinite(v.HoldOhms) || !isFinite(vdd) {
		return 0, fmt.Errorf("%w: non-finite victim input", ErrCannotScreen)
	}
	if vdd <= 0 {
		return 0, fmt.Errorf("%w: supply %g V", ErrCannotScreen, vdd)
	}
	if v.GroundCapF <= 0 {
		return 0, fmt.Errorf("%w: victim ground capacitance %g F", ErrCannotScreen, v.GroundCapF)
	}
	if v.HoldOhms <= 0 {
		return 0, fmt.Errorf("%w: holding resistance %g ohms", ErrCannotScreen, v.HoldOhms)
	}
	if v.WireOhms < 0 {
		return 0, fmt.Errorf("%w: wire resistance %g ohms", ErrCannotScreen, v.WireOhms)
	}
	if len(aggs) == 0 {
		return 0, fmt.Errorf("%w: no aggressors", ErrCannotScreen)
	}
	totalCc := 0.0
	for i, a := range aggs {
		if !isFinite(a.CouplingF) || !isFinite(a.SlewS) {
			return 0, fmt.Errorf("%w: non-finite aggressor %d input", ErrCannotScreen, i)
		}
		if a.CouplingF < 0 {
			return 0, fmt.Errorf("%w: aggressor %d coupling %g F", ErrCannotScreen, i, a.CouplingF)
		}
		if a.SlewS <= 0 {
			return 0, fmt.Errorf("%w: aggressor %d slew %g s", ErrCannotScreen, i, a.SlewS)
		}
		totalCc += a.CouplingF
	}
	if totalCc <= 0 {
		return 0, fmt.Errorf("%w: zero total coupling", ErrCannotScreen)
	}
	// The raw Devgan metric assumes the coupling current never exceeds
	// Cc·Vdd/tr, but in a distributed victim an interior node can already be
	// discharging (through the holder, at up to peak/(HoldOhms·(Cg+Cc)))
	// while the observation node still rises, adding its own slew to the
	// aggressor's across the coupling cap. Solving the resulting
	// self-consistent inequality peak ≤ Σdv + R·Cc·peak/(Rh·(Cg+Cc))
	// inflates the Devgan sum by 1/(1−ρ); when ρ ≥ 1 the term carries no
	// information and the charge-share bound stands alone.
	rho := (v.HoldOhms + v.WireOhms) * totalCc / (v.HoldOhms * (v.GroundCapF + totalCc))
	devganInflate := math.Inf(1)
	if rho < 1 {
		devganInflate = 1 / (1 - rho)
	}
	bound := 0.0
	for _, a := range aggs {
		if a.CouplingF == 0 {
			continue // contributes nothing (and 0·Inf inflation is NaN)
		}
		// Charge share: the capacitive divider of the full swing against the
		// victim's grounded capacitance alone (the other aggressors switch
		// with this one in the worst case, so their couplings do not help).
		cs := vdd * a.CouplingF / (a.CouplingF + v.GroundCapF)
		// Devgan: the holding path (driver plus the whole victim wire, which
		// dominates any partial path to the injection point) times the
		// worst-case coupled ramp current Cc·Vdd/tr, inflated for victim
		// back-action as derived above.
		dv := (v.HoldOhms + v.WireOhms) * a.CouplingF * vdd / a.SlewS * devganInflate
		bound += math.Min(cs, dv)
	}
	// No passive RC response to rail-bounded sources can leave [0, Vdd].
	if bound > vdd {
		bound = vdd
	}
	return bound, nil
}

func isFinite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// holdResistance upper-bounds the effective resistance of c holding either
// rail under the given driver model.
func holdResistance(c *cells.Cell, model DriverModel, fixedOhms float64) (float64, error) {
	switch model {
	case DriverFixedR:
		return fixedOhms, nil
	case DriverTimingLibrary:
		tm, err := cells.CharacterizeCached(c)
		if err != nil {
			return 0, err
		}
		// The simulator attaches exactly DriveResistance(outRising) for the
		// rail matching the glitch polarity; the max over both rails covers
		// both polarities.
		return math.Max(tm.DriveResistance(false), tm.DriveResistance(true)), nil
	case DriverNonlinear:
		// A rail-holding output stage at full gate drive has a concave I(V)
		// characteristic (triode into saturation, clamps only add current),
		// so V/I(V) is maximized at the full-swing deviation: Rmax =
		// Vdd/Idsat = 2·EstimateDriveResistance. Max over both stages covers
		// both polarities.
		r := math.Max(cells.EstimateDriveResistance(c, false), cells.EstimateDriveResistance(c, true))
		return 2 * r, nil
	default:
		return 0, fmt.Errorf("analytic: unknown driver model %d", model)
	}
}

// aggressorSlew lower-bounds the output transition time of an aggressor
// driver under the given model, minimized over both switching directions.
func aggressorSlew(c *cells.Cell, loadF float64, opt BoundOptions) (float64, error) {
	switch opt.Model {
	case DriverFixedR:
		// The fixed-R driver is an ideal ramp of exactly the aggressor input
		// slew behind R: the line cannot slew faster than the source.
		return cells.AggressorInputSlew, nil
	case DriverTimingLibrary, DriverNonlinear:
		tm, err := cells.CharacterizeCached(c)
		if err != nil {
			return 0, err
		}
		tr := math.Min(
			tm.Trans(loadF, cells.AggressorInputSlew, true),
			tm.Trans(loadF, cells.AggressorInputSlew, false),
		)
		if opt.Model == DriverNonlinear {
			tr *= nonlinearSlewDerate
		}
		return tr, nil
	default:
		return 0, fmt.Errorf("analytic: unknown driver model %d", opt.Model)
	}
}

// BoundCluster maps a pruned cluster onto its lumped view through the cell
// surfaces and returns the conservative worst-case glitch magnitude bound
// (valid for both polarities). A cluster whose inputs are degenerate yields
// an error wrapping ErrCannotScreen; cell characterization failures are
// returned as-is. The caller screens the cluster when the returned bound —
// inflated by its safety factor — stays below the noise margin.
func BoundCluster(par *extract.Parasitics, cl *prune.Cluster, opt BoundOptions) (float64, error) {
	opt.setDefaults()
	d := par.Design
	vrc := par.Nets[cl.Victim]
	vl := VictimLump{GroundCapF: vrc.TotalCapF() + cl.DroppedF}
	for _, r := range vrc.Res {
		vl.WireOhms += r.Ohms
	}
	// The bound reasons about the driver the glitch engine attaches: the
	// strongest of a bus's drivers.
	vNet := d.Nets[cl.Victim]
	vDrv := vNet.StrongestDriver()
	if vDrv < 0 {
		return 0, fmt.Errorf("%w: victim %s has no driver", ErrCannotScreen, vNet.Name)
	}
	var err error
	if vl.HoldOhms, err = holdResistance(vNet.Drivers[vDrv].Cell, opt.Model, opt.FixedOhms); err != nil {
		return 0, err
	}
	aggs := make([]AggressorLump, len(cl.Aggressors))
	for i, a := range cl.Aggressors {
		aNet := d.Nets[a.Net]
		aDrv := aNet.StrongestDriver()
		if aDrv < 0 {
			return 0, fmt.Errorf("%w: aggressor %s has no driver", ErrCannotScreen, aNet.Name)
		}
		slew, err := aggressorSlew(aNet.Drivers[aDrv].Cell, par.Nets[a.Net].TotalCapF(), opt)
		if err != nil {
			return 0, err
		}
		aggs[i] = AggressorLump{CouplingF: a.CouplingF, SlewS: slew}
	}
	return BoundLumped(vl, aggs, opt.Vdd)
}

// FromTech builds the classic two-line CoupledLine estimate from a
// technology description, so experiment code shares one mapping instead of
// duplicating the per-micrometer constants (the coupling scales with
// MinSpacing/spacing exactly like extraction does).
func FromTech(tech *extract.Tech, lengthUM, spacingUM, rdrvVictim, rdrvAggressor, loadF, slewS float64) CoupledLine {
	s := math.Max(spacingUM, tech.MinSpacingUM)
	return CoupledLine{
		LengthUM:      lengthUM,
		RPerUM:        tech.ROhmPerUM,
		CgPerUM:       tech.CgFPerUM,
		CcPerUM:       tech.Cc0FPerUM * tech.MinSpacingUM / s,
		RdrvVictim:    rdrvVictim,
		RdrvAggressor: rdrvAggressor,
		LoadF:         loadF,
		SlewS:         slewS,
		Vdd:           tech.Vdd,
	}
}
