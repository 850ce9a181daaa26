package cells

import (
	"fmt"

	"xtverify/internal/devices"
	"xtverify/internal/memo"
	"xtverify/internal/spice"
	"xtverify/internal/waveform"
)

// Timing is an NLDM-style characterization table for one cell: propagation
// delay and output transition time indexed by [load][input slew], for rising
// and falling output transitions. This is the "cell timing library" of the
// paper's Section 4.1.
type Timing struct {
	Cell *Cell
	// Loads are the characterized load capacitances (farads).
	Loads []float64
	// Slews are the characterized input transition times (seconds, full
	// swing).
	Slews []float64
	// DelayRise[i][j] is the 50 %→50 % delay for a rising output with load
	// Loads[i] and input slew Slews[j]; DelayFall likewise.
	DelayRise, DelayFall [][]float64
	// TransRise and TransFall are full-swing-equivalent output transition
	// times (measured 20–80 % and scaled by 1/0.6).
	TransRise, TransFall [][]float64
}

// DefaultLoads and DefaultSlews are the characterization grids.
var (
	DefaultLoads = []float64{5e-15, 20e-15, 50e-15, 100e-15, 200e-15}
	DefaultSlews = []float64{50e-12, 100e-12, 200e-12, 400e-12}
)

// CharacterizeOptions tunes the characterization run.
type CharacterizeOptions struct {
	// Loads and Slews override the grids when non-nil.
	Loads, Slews []float64
	// Dt is the transient step (2 ps default).
	Dt float64
}

// timingCache memoizes CharacterizeCached by cell name.
var timingCache memo.Map[string, *Timing]

// CharacterizeCached characterizes with default grids, memoizing per cell —
// the paper's "one-time task".
func CharacterizeCached(c *Cell) (*Timing, error) {
	return timingCache.Get(c.Name, func() (*Timing, error) {
		return Characterize(c, CharacterizeOptions{})
	})
}

// Characterize measures the cell against the SPICE-class engine.
func Characterize(c *Cell, opt CharacterizeOptions) (*Timing, error) {
	loads := opt.Loads
	if loads == nil {
		loads = DefaultLoads
	}
	slews := opt.Slews
	if slews == nil {
		slews = DefaultSlews
	}
	dt := opt.Dt
	if dt <= 0 {
		dt = 2e-12
	}
	tm := &Timing{
		Cell:  c,
		Loads: append([]float64(nil), loads...),
		Slews: append([]float64(nil), slews...),
	}
	alloc := func() [][]float64 {
		m := make([][]float64, len(loads))
		for i := range m {
			m[i] = make([]float64, len(slews))
		}
		return m
	}
	tm.DelayRise, tm.DelayFall = alloc(), alloc()
	tm.TransRise, tm.TransFall = alloc(), alloc()

	for i, load := range loads {
		for j, slew := range slews {
			for _, rising := range []bool{true, false} {
				delay, trans, err := measureArc(c, load, slew, rising, dt)
				if err != nil {
					return nil, fmt.Errorf("cells: characterize %s load=%g slew=%g: %w", c.Name, load, slew, err)
				}
				if rising {
					tm.DelayRise[i][j], tm.TransRise[i][j] = delay, trans
				} else {
					tm.DelayFall[i][j], tm.TransFall[i][j] = delay, trans
				}
			}
		}
	}
	return tm, nil
}

// measureArc runs one transient: input ramp chosen so the OUTPUT makes the
// requested transition; returns 50–50 delay and full-swing-equivalent output
// transition time.
func measureArc(c *Cell, load, slew float64, outRising bool, dt float64) (delay, trans float64, err error) {
	const vdd = devices.Vdd025
	n := spice.NewNetlist("char_" + c.Name)
	in := n.Node("in")
	out := n.Node("out")
	vddN := n.Node("vdd")
	n.Drive(vddN, waveform.Const(vdd))
	// Input polarity: for an inverting cell a rising output needs a falling
	// input.
	inRising := outRising
	if c.Polarity() < 0 {
		inRising = !outRising
	}
	t0 := 100e-12
	var v0, v1 float64
	if inRising {
		v0, v1 = 0, vdd
	} else {
		v0, v1 = vdd, 0
	}
	n.Drive(in, waveform.Ramp(v0, v1, t0, slew))
	if _, err := c.BuildDriver(n, "u", in, out, vddN); err != nil {
		return 0, 0, err
	}
	n.AddC(out, spice.Ground, load+c.OutDiffCapF)
	// Span scaled to the expected RC of this arc so fast cells don't pay for
	// slow ones; the step follows so every arc resolves its edge.
	rEst := EstimateDriveResistance(c, outRising)
	tEnd := t0 + slew + 10*rEst*(load+c.OutDiffCapF) + 1e-9
	step := dt
	if fine := tEnd / 2500; fine < step {
		step = fine
	}
	res, err := n.Transient(spice.Options{TEnd: tEnd, Dt: step})
	if err != nil {
		return 0, 0, err
	}
	w, err := res.Wave("out")
	if err != nil {
		return 0, 0, err
	}
	inCross := t0 + slew/2
	outCross, ok := w.LastCrossTime(vdd/2, outRising)
	if !ok {
		return 0, 0, fmt.Errorf("output never crossed 50%% (rising=%v)", outRising)
	}
	delay = outCross - inCross
	st, ok := w.SlewTime(0.2*vdd, 0.8*vdd, outRising)
	if !ok {
		return 0, 0, fmt.Errorf("output transition incomplete")
	}
	trans = st / 0.6
	return delay, trans, nil
}

// interp2 does bilinear interpolation with clamping on the (loads, slews)
// grid.
func (t *Timing) interp2(table [][]float64, load, slew float64) float64 {
	li, lf := gridPos(t.Loads, load)
	si, sf := gridPos(t.Slews, slew)
	v00 := table[li][si]
	v10 := table[li+1][si]
	v01 := table[li][si+1]
	v11 := table[li+1][si+1]
	return v00*(1-lf)*(1-sf) + v10*lf*(1-sf) + v01*(1-lf)*sf + v11*lf*sf
}

func gridPos(grid []float64, x float64) (i int, frac float64) {
	n := len(grid)
	if n == 1 {
		return 0, 0
	}
	if x <= grid[0] {
		return 0, 0
	}
	if x >= grid[n-1] {
		return n - 2, 1
	}
	for k := 1; k < n; k++ {
		if x < grid[k] {
			return k - 1, (x - grid[k-1]) / (grid[k] - grid[k-1])
		}
	}
	return n - 2, 1
}

// Delay interpolates the delay table (outRising selects the arc).
func (t *Timing) Delay(load, slew float64, outRising bool) float64 {
	if outRising {
		return t.interp2(t.DelayRise, load, slew)
	}
	return t.interp2(t.DelayFall, load, slew)
}

// Trans interpolates the output transition table.
func (t *Timing) Trans(load, slew float64, outRising bool) float64 {
	if outRising {
		return t.interp2(t.TransRise, load, slew)
	}
	return t.interp2(t.TransFall, load, slew)
}

// DriveResistance deduces the effective linear drive resistance for a
// transition from the slope of delay versus load (the Section 4.1 model):
// delay ≈ d₀ + ln(2)·R·C_load, so R = Δdelay / (ln 2 · ΔC).
func (t *Timing) DriveResistance(outRising bool) float64 {
	n := len(t.Loads)
	j := len(t.Slews) / 2
	var d1, d2 float64
	if outRising {
		d1, d2 = t.DelayRise[n-2][j], t.DelayRise[n-1][j]
	} else {
		d1, d2 = t.DelayFall[n-2][j], t.DelayFall[n-1][j]
	}
	const ln2 = 0.6931471805599453
	r := (d2 - d1) / (ln2 * (t.Loads[n-1] - t.Loads[n-2]))
	if r <= 0 {
		// Degenerate table (e.g. single-point grid): fall back to a
		// saturation-current estimate.
		r = EstimateDriveResistance(t.Cell, outRising)
	}
	return r
}

// EstimateDriveResistance is a closed-form fallback: Vdd/2 divided by the
// output-stage saturation current at full gate drive.
func EstimateDriveResistance(c *Cell, outRising bool) float64 {
	var m *devices.MOSFET
	if outRising {
		m = &devices.MOSFET{Params: devices.Tech025(devices.PMOS), W: c.Wp, L: LDrawn}
		id := m.IdsAt(0, 0, devices.Vdd025) // conducting PMOS, vsd = vdd
		if id < 0 {
			id = -id
		}
		return devices.Vdd025 / 2 / id
	}
	m = &devices.MOSFET{Params: devices.Tech025(devices.NMOS), W: c.Wn, L: LDrawn}
	id := m.IdsAt(devices.Vdd025, devices.Vdd025, 0)
	return devices.Vdd025 / 2 / id
}
