package cells

import (
	"fmt"

	"xtverify/internal/devices"
	"xtverify/internal/memo"
	"xtverify/internal/spice"
	"xtverify/internal/waveform"
)

// VTC is the static voltage transfer characteristic of a cell's switching
// input, with the derived noise-margin quantities used to decide whether a
// crosstalk glitch at a receiver input can propagate as a logic upset
// (the paper's "false switching due to glitches" concern).
type VTC struct {
	Cell *Cell
	// Vin and Vout sample the transfer curve.
	Vin, Vout []float64
	// VIL and VIH are the unity-gain input levels (|dVout/dVin| = 1).
	VIL, VIH float64
	// VOL and VOH are the output levels at the corresponding corners.
	VOL, VOH float64
	// VM is the switching threshold (Vout = Vin for inverting cells;
	// mid-swing crossing otherwise).
	VM float64
	// NML and NMH are the low/high noise margins: NML = VIL − VOL,
	// NMH = VOH − VIH.
	NML, NMH float64
}

// vtcCache memoizes CharacterizeVTC by cell name.
var vtcCache memo.Map[string, *VTC]

// CharacterizeVTC sweeps the cell's switching input at DC with the
// SPICE-class engine and extracts the noise-margin corners. Results are
// memoized per cell.
func CharacterizeVTC(c *Cell) (*VTC, error) {
	return vtcCache.Get(c.Name, func() (*VTC, error) { return characterizeVTC(c) })
}

func characterizeVTC(c *Cell) (*VTC, error) {
	const points = 61
	v := &VTC{Cell: c}
	vdd := devices.Vdd025
	for k := 0; k < points; k++ {
		vin := vdd * float64(k) / float64(points-1)
		n := spice.NewNetlist("vtc_" + c.Name)
		in := n.Node("in")
		out := n.Node("out")
		vddN := n.Node("vdd")
		n.Drive(vddN, waveform.Const(vdd))
		n.Drive(in, waveform.Const(vin))
		if _, err := c.BuildDriver(n, "u", in, out, vddN); err != nil {
			return nil, err
		}
		op, err := n.DCOperatingPoint(0, spice.Options{})
		if err != nil {
			return nil, fmt.Errorf("cells: VTC of %s at %.2f V: %w", c.Name, vin, err)
		}
		v.Vin = append(v.Vin, vin)
		v.Vout = append(v.Vout, op[out])
	}
	v.derive()
	return v, nil
}

// derive locates the unity-gain points and noise margins from the sampled
// curve.
func (v *VTC) derive() {
	n := len(v.Vin)
	if n < 3 {
		return
	}
	inverting := v.Vout[0] > v.Vout[n-1]
	// Walk the curve; unity-gain where |slope| crosses 1.
	firstUG, lastUG := -1, -1
	for i := 1; i < n; i++ {
		slope := (v.Vout[i] - v.Vout[i-1]) / (v.Vin[i] - v.Vin[i-1])
		if slope < 0 {
			slope = -slope
		}
		if slope >= 1 {
			if firstUG < 0 {
				firstUG = i - 1
			}
			lastUG = i
		}
	}
	if firstUG < 0 {
		// Degenerate (non-restoring path); treat the whole swing as
		// transition region.
		firstUG, lastUG = 0, n-1
	}
	v.VIL = v.Vin[firstUG]
	v.VIH = v.Vin[lastUG]
	if inverting {
		v.VOH = v.Vout[firstUG] // output still high at VIL
		v.VOL = v.Vout[lastUG]
	} else {
		v.VOL = v.Vout[firstUG]
		v.VOH = v.Vout[lastUG]
	}
	v.NML = v.VIL - v.VOL
	v.NMH = v.VOH - v.VIH
	// Switching threshold: crossing of Vout = Vin (inverting) or mid-swing.
	vdd := devices.Vdd025
	for i := 1; i < n; i++ {
		if inverting {
			d0 := v.Vout[i-1] - v.Vin[i-1]
			d1 := v.Vout[i] - v.Vin[i]
			if d0 >= 0 && d1 < 0 {
				frac := d0 / (d0 - d1)
				v.VM = v.Vin[i-1] + frac*(v.Vin[i]-v.Vin[i-1])
				return
			}
		} else {
			if v.Vout[i-1] < vdd/2 && v.Vout[i] >= vdd/2 {
				frac := (vdd/2 - v.Vout[i-1]) / (v.Vout[i] - v.Vout[i-1])
				v.VM = v.Vin[i-1] + frac*(v.Vin[i]-v.Vin[i-1])
				return
			}
		}
	}
	v.VM = vdd / 2
}

// GlitchPropagates reports whether a glitch of the given signed peak on a
// quiet input at the stated rail can drive this receiving cell past its
// unity-gain corner — the condition under which the disturbance is
// amplified downstream instead of filtered.
func (v *VTC) GlitchPropagates(peak float64, heldLow bool) bool {
	if heldLow {
		return peak > v.VIL
	}
	return devices.Vdd025+peak < v.VIH // peak is negative for high victims
}
