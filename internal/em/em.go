// Package em implements the electromigration / current-density audit that
// motivates part of the paper's Section 4.2: the nonlinear cell model is
// required to be "accurate enough to capture not only the average and RMS
// current and/or voltage at the cell driving point" precisely so analyses
// like this one are trustworthy.
//
// For each net the driver is switched through a full low→high→low cycle at
// the stated activity frequency against the reduced-order model of its
// extracted interconnect; the driver current waveform i(t) is recovered
// from the port voltage through the driver model's own I–V law, and its
// average, RMS and peak values are compared against per-width current
// limits.
package em

import (
	"math"

	"xtverify/internal/cellmodel"
	"xtverify/internal/cells"
	"xtverify/internal/circuit"
	"xtverify/internal/design"
	"xtverify/internal/extract"
	"xtverify/internal/mna"
	"xtverify/internal/prune"
	"xtverify/internal/romsim"
	"xtverify/internal/sympvl"
)

// Limits are aluminum-interconnect current-density limits for the 0.25 µm
// generation, expressed per meter of wire width.
type Limits struct {
	// AvgAPerM bounds unidirectional (average) current density.
	AvgAPerM float64
	// RMSAPerM bounds Joule-heating (RMS) current density.
	RMSAPerM float64
	// PeakAPerM bounds transient peaks.
	PeakAPerM float64
}

// DefaultLimits returns the standard limits (1 mA/µm avg, 2 mA/µm RMS,
// 10 mA/µm peak).
func DefaultLimits() Limits {
	return Limits{AvgAPerM: 1e-3 / 1e-6, RMSAPerM: 2e-3 / 1e-6, PeakAPerM: 10e-3 / 1e-6}
}

// Result is the per-net EM audit outcome.
type Result struct {
	Net        string
	DriverCell string
	// WidthM is the minimum wire width on the route.
	WidthM float64
	// IAvgA, IRMSA and IPeakA are the driver current measures over one
	// switching cycle at the activity frequency.
	IAvgA, IRMSA, IPeakA float64
	// Limits used for the verdicts.
	Limits Limits
	// AvgViolation, RMSViolation, PeakViolation flag exceeded limits.
	AvgViolation, RMSViolation, PeakViolation bool
}

// Violated reports whether any limit is exceeded.
func (r *Result) Violated() bool { return r.AvgViolation || r.RMSViolation || r.PeakViolation }

// Options configures the audit.
type Options struct {
	// ActivityHz is the switching frequency (both edges per period);
	// 200 MHz if zero — a leading-edge 1999 DSP clock.
	ActivityHz float64
}

// baseStep is the transient step; stepFor widens it for low activity
// frequencies.
const baseStep = 2e-12

// AnalyzeNet audits one net of the extraction against DefaultLimits.
func AnalyzeNet(par *extract.Parasitics, netIdx int, opt Options) (*Result, error) {
	if opt.ActivityHz == 0 {
		opt.ActivityHz = 200e6
	}
	net := par.Design.Nets[netIdx]
	rc := par.Nets[netIdx]
	drv := net.Drivers[net.StrongestDriver()]
	res := &Result{Net: net.Name, DriverCell: drv.Cell.Name, Limits: DefaultLimits()}
	res.WidthM = minWidth(net) * 1e-6

	// Single-net circuit: wire RC with all coupling grounded (worst
	// capacitive load) and the driver port.
	ckt := prune.WireCircuit(par, "em_"+net.Name, []int{netIdx})
	ckt.AddPort("drv", circuit.NodeID(rc.DriverNodes[0]), circuit.PortDriver, 0)
	sys, err := mna.FromCircuit(ckt, mna.Options{})
	if err != nil {
		return nil, err
	}
	model, err := sympvl.Reduce(sys, sympvl.Options{Order: 8})
	if err != nil {
		return nil, err
	}

	// Full cycle: rise at T/4, fall at 3T/4.
	period := 1 / opt.ActivityHz
	tm, err := cells.CharacterizeCached(drv.Cell)
	if err != nil {
		return nil, err
	}
	load := rc.TotalCapF()
	up, err := cellmodel.NewNonlinearSwitching(drv.Cell, tm, true, period/4, cells.AggressorInputSlew, load)
	if err != nil {
		return nil, err
	}
	down, err := cellmodel.NewNonlinearSwitching(drv.Cell, tm, false, 3*period/4, cells.AggressorInputSlew, load)
	if err != nil {
		return nil, err
	}
	cycle := &cycleDriver{up: up, down: down, mid: period / 2}
	simRes, err := romsim.Simulate(model, []romsim.Termination{{Dev: cycle}},
		romsim.Options{TEnd: period, Dt: stepFor(period)})
	if err != nil {
		return nil, err
	}
	// Recover i(t) from the port voltage through the driver law and
	// integrate.
	w := simRes.Ports[0]
	var sumAbs, sumSq, peak float64
	for k := 1; k < w.Len(); k++ {
		dt := w.T[k] - w.T[k-1]
		i, _ := cycle.Current(w.V[k], w.T[k])
		a := math.Abs(i)
		sumAbs += a * dt
		sumSq += i * i * dt
		if a > peak {
			peak = a
		}
	}
	res.IAvgA = sumAbs / period
	res.IRMSA = math.Sqrt(sumSq / period)
	res.IPeakA = peak
	res.AvgViolation = res.IAvgA > res.Limits.AvgAPerM*res.WidthM
	res.RMSViolation = res.IRMSA > res.Limits.RMSAPerM*res.WidthM
	res.PeakViolation = res.IPeakA > res.Limits.PeakAPerM*res.WidthM
	return res, nil
}

// stepFor keeps the step count bounded for low activity frequencies.
func stepFor(period float64) float64 {
	const maxSteps = 20000
	if period/baseStep > maxSteps {
		return period / maxSteps
	}
	return baseStep
}

func minWidth(net *design.Net) float64 {
	w := math.Inf(1)
	for _, s := range net.Route {
		if s.Width < w {
			w = s.Width
		}
	}
	if math.IsInf(w, 1) {
		return 0.6
	}
	return w
}

// cycleDriver switches up for the first half-cycle and down for the second.
type cycleDriver struct {
	up, down romsim.Device
	mid      float64
}

// Current implements romsim.Device.
func (c *cycleDriver) Current(v, t float64) (float64, float64) {
	if t < c.mid {
		return c.up.Current(v, t)
	}
	return c.down.Current(v, t)
}
