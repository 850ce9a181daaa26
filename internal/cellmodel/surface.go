package cellmodel

import (
	"fmt"
	"sort"

	"xtverify/internal/cells"
	"xtverify/internal/memo"
	"xtverify/internal/romsim"
	"xtverify/internal/spice"
	"xtverify/internal/waveform"
)

// IVSurface is the full static characterization of a cell's drive path: the
// current injected into the net as a function of output voltage v AND input
// voltage u. This is the i_x(v_x) family of the paper's Eq. 4 — during a
// transition the instantaneous drive is read off the surface at the present
// input level, which captures the reduced overdrive of half-switched
// devices that a two-curve blend overstates.
type IVSurface struct {
	// U are the characterized input levels (ascending, volts at the cell's
	// switching input).
	U []float64
	// Curves[i] is the output I–V curve with the input held at U[i].
	Curves []*IVCurve
}

// Eval returns I(v, u) and ∂I/∂v by linear interpolation across input
// levels.
func (s *IVSurface) Eval(v, u float64) (float64, float64) {
	n := len(s.U)
	if n == 0 {
		return 0, 0
	}
	if n == 1 || u <= s.U[0] {
		return s.Curves[0].Eval(v)
	}
	if u >= s.U[n-1] {
		return s.Curves[n-1].Eval(v)
	}
	i := sort.SearchFloat64s(s.U, u)
	// s.U[i-1] < u <= s.U[i]
	frac := (u - s.U[i-1]) / (s.U[i] - s.U[i-1])
	i0, g0 := s.Curves[i-1].Eval(v)
	i1, g1 := s.Curves[i].Eval(v)
	return i0*(1-frac) + i1*frac, g0*(1-frac) + g1*frac
}

// surfKey is everything that shapes a CharacterizeIVSurface result.
type surfKey struct {
	cell           string
	levels, points int
}

// surfCache memoizes the one-time surface characterizations.
var surfCache memo.Map[surfKey, *IVSurface]

// CharacterizeIVSurface measures the drive surface with the SPICE-class
// engine: for each input level the switching input is held at DC and the
// output is swept through a 1 Ω sense resistor. Results are memoized per
// cell and grid (the one-time characterization task).
func CharacterizeIVSurface(c *cells.Cell, levels, points int) (*IVSurface, error) {
	if levels < 2 {
		levels = 9
	}
	if points < 2 {
		points = 21
	}
	return surfCache.Get(surfKey{c.Name, levels, points}, func() (*IVSurface, error) {
		return characterizeIVSurface(c, levels, points)
	})
}

func characterizeIVSurface(c *cells.Cell, levels, points int) (*IVSurface, error) {
	surf := &IVSurface{}
	const rSense = 1.0
	for li := 0; li < levels; li++ {
		u := Vdd * float64(li) / float64(levels-1)
		curve := &IVCurve{}
		for k := 0; k < points; k++ {
			vForce := -0.3 + (Vdd+0.6)*float64(k)/float64(points-1)
			n := spice.NewNetlist("ivs_" + c.Name)
			out := n.Node("out")
			vddN := n.Node("vdd")
			force := n.Node("force")
			in := n.Node("in")
			n.Drive(vddN, waveform.Const(Vdd))
			n.Drive(force, waveform.Const(vForce))
			n.Drive(in, waveform.Const(u))
			n.AddR(force, out, rSense)
			if _, err := c.BuildDriver(n, "u", in, out, vddN); err != nil {
				return nil, err
			}
			op, err := n.DCOperatingPoint(0, spice.Options{})
			if err != nil {
				return nil, fmt.Errorf("cellmodel: IV surface of %s at u=%.2f v=%.2f: %w", c.Name, u, vForce, err)
			}
			vOut := op[out]
			curve.V = append(curve.V, vOut)
			curve.I = append(curve.I, -(vForce-vOut)/rSense)
		}
		sort.Sort(byVoltage{curve})
		surf.U = append(surf.U, u)
		surf.Curves = append(surf.Curves, curve)
	}
	return surf, nil
}

// SurfaceDriver drives a net from an IVSurface with a prescribed input
// waveform — the paper's Eq. 4 termination i_x(v_x) with time entering
// through the input trajectory.
type SurfaceDriver struct {
	Surface *IVSurface
	// In is the input-voltage trajectory at the cell's switching input.
	In waveform.Source
}

// Current implements romsim.Device and spice.Behavioral.
func (d *SurfaceDriver) Current(v, t float64) (float64, float64) {
	return d.Surface.Eval(v, d.In(t))
}

// Termination converts to a reduced-order simulator termination.
func (d *SurfaceDriver) Termination() romsim.Termination {
	return romsim.Termination{Dev: d}
}
