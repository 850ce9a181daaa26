package cellmodel

import (
	"math"
	"testing"

	"xtverify/internal/cells"
	"xtverify/internal/circuit"
	"xtverify/internal/devices"
	"xtverify/internal/mna"
	"xtverify/internal/romsim"
	"xtverify/internal/spice"
	"xtverify/internal/sympvl"
	"xtverify/internal/waveform"
)

var testChar = cells.CharacterizeOptions{
	Loads: []float64{10e-15, 40e-15, 120e-15},
	Slews: []float64{80e-12, 200e-12},
	Dt:    4e-12,
}

func timingFor(t *testing.T, name string) (*cells.Cell, *cells.Timing) {
	t.Helper()
	c, ok := cells.ByName(name)
	if !ok {
		t.Fatalf("cell %s missing", name)
	}
	tm, err := cells.Characterize(c, testChar)
	if err != nil {
		t.Fatal(err)
	}
	return c, tm
}

func TestIVCurvePullDownShape(t *testing.T) {
	c, _ := cells.ByName("INV_X2")
	cv, err := CharacterizeIV(c, StagePullDown, 15)
	if err != nil {
		t.Fatal(err)
	}
	// At v=0 the conducting pulldown sinks no current; as v rises it sinks
	// (negative injection) increasingly, saturating.
	i0, _ := cv.Eval(0)
	if math.Abs(i0) > 1e-5 {
		t.Errorf("I(0) = %g, want ≈0", i0)
	}
	iMid, _ := cv.Eval(1.5)
	iHigh, _ := cv.Eval(3.0)
	if iMid >= 0 || iHigh >= 0 {
		t.Errorf("pulldown must sink current: I(1.5)=%g I(3)=%g", iMid, iHigh)
	}
	if math.Abs(iHigh) < math.Abs(iMid) {
		t.Errorf("current should grow toward saturation: |I(3)|=%g < |I(1.5)|=%g", math.Abs(iHigh), math.Abs(iMid))
	}
	// Negative glitch region: the pulldown sources current below ground.
	iNeg, _ := cv.Eval(-0.3)
	if iNeg <= 0 {
		t.Errorf("I(-0.3) = %g, want positive (restoring)", iNeg)
	}
}

func TestIVCurvePullUpShape(t *testing.T) {
	c, _ := cells.ByName("INV_X2")
	cv, err := CharacterizeIV(c, StagePullUp, 15)
	if err != nil {
		t.Fatal(err)
	}
	iVdd, _ := cv.Eval(Vdd)
	if math.Abs(iVdd) > 1e-5 {
		t.Errorf("I(Vdd) = %g, want ≈0", iVdd)
	}
	iMid, _ := cv.Eval(1.5)
	if iMid <= 0 {
		t.Errorf("pullup must source current at 1.5V: %g", iMid)
	}
}

// TestCharacterizeIVKeysByPoints: the I–V memo keys by point count, so a
// default (25-point) request after a 15-point one gets its own grid.
func TestCharacterizeIVKeysByPoints(t *testing.T) {
	c, _ := cells.ByName("INV_X2")
	for _, tc := range []struct{ points, want int }{{15, 15}, {0, 25}, {25, 25}} {
		cv, err := CharacterizeIV(c, StagePullDown, tc.points)
		if err != nil {
			t.Fatal(err)
		}
		if len(cv.V) != tc.want {
			t.Errorf("CharacterizeIV(points=%d) returned %d samples, want %d", tc.points, len(cv.V), tc.want)
		}
	}
}

func TestIVCurveEvalInterpolation(t *testing.T) {
	cv := &IVCurve{V: []float64{0, 1, 2}, I: []float64{0, -2, -3}}
	i, di := cv.Eval(0.5)
	if math.Abs(i+1) > 1e-12 || math.Abs(di+2) > 1e-12 {
		t.Errorf("Eval(0.5) = %g, %g; want -1, -2", i, di)
	}
	// Extrapolation beyond ends uses edge slope.
	i, _ = cv.Eval(3)
	if math.Abs(i+4) > 1e-12 {
		t.Errorf("Eval(3) = %g, want -4", i)
	}
	i, _ = cv.Eval(-1)
	if math.Abs(i-2) > 1e-12 {
		t.Errorf("Eval(-1) = %g, want 2", i)
	}
}

func TestLinearHoldingResistance(t *testing.T) {
	_, tm := timingFor(t, "INV_X2")
	low := NewLinearHolding(tm, cells.HoldLow)
	if low.R <= 0 || low.Vs(0) != 0 {
		t.Errorf("hold-low model: R=%g Vs=%g", low.R, low.Vs(0))
	}
	high := NewLinearHolding(tm, cells.HoldHigh)
	if high.Vs(0) != Vdd {
		t.Errorf("hold-high source %g, want %g", high.Vs(0), Vdd)
	}
}

func TestLinearDriverAsBehavioralMatchesTermination(t *testing.T) {
	d := &LinearDriver{R: 1000, Vs: waveform.Const(2)}
	i, di := d.Current(1, 0)
	if math.Abs(i-1e-3) > 1e-15 || math.Abs(di+1e-3) > 1e-15 {
		t.Errorf("Current = %g, %g", i, di)
	}
	term := d.Termination()
	if term.Linear == nil || term.Linear.G != 1e-3 {
		t.Error("termination mismatch")
	}
}

// spiceDriveWave runs the transistor-level cell driving an RC wire + load
// and returns the far-end waveform (the golden reference).
func spiceDriveWave(t *testing.T, c *cells.Cell, outRising bool, rWire, cWire, cLoad float64) *waveform.Waveform {
	t.Helper()
	n := spice.NewNetlist("gold")
	in := n.Node("in")
	out := n.Node("out")
	far := n.Node("far")
	vdd := n.Node("vdd")
	n.Drive(vdd, waveform.Const(Vdd))
	inRising := outRising
	if c.Polarity() < 0 {
		inRising = !outRising
	}
	v0, v1 := 0.0, Vdd
	if !inRising {
		v0, v1 = Vdd, 0
	}
	n.Drive(in, waveform.Ramp(v0, v1, 100e-12, 100e-12))
	if _, err := c.BuildDriver(n, "u", in, out, vdd); err != nil {
		t.Fatal(err)
	}
	n.AddR(out, far, rWire)
	n.AddC(out, spice.Ground, cWire/2)
	n.AddC(far, spice.Ground, cWire/2+cLoad)
	res, err := n.Transient(spice.Options{TEnd: 4e-9, Dt: 2e-12})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := res.Wave("far")
	return w
}

// romDriveWave runs a driver model over the reduced-order model of the same
// RC wire.
func romDriveWave(t *testing.T, term romsim.Termination, rWire, cWire, cLoad float64) *waveform.Waveform {
	t.Helper()
	ckt := circuit.New("wire")
	out := ckt.Node("out")
	far := ckt.Node("far")
	ckt.AddPort("drv", out, circuit.PortDriver, 0)
	ckt.AddResistor("rw", out, far, rWire)
	ckt.AddCapacitor("c1", out, circuit.Ground, cWire/2)
	ckt.AddCapacitor("c2", far, circuit.Ground, cWire/2+cLoad)
	ckt.AddPort("rcv", far, circuit.PortReceiver, 0)
	sys, err := mna.FromCircuit(ckt, mna.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := sympvl.Reduce(sys, sympvl.Options{Order: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := romsim.Simulate(m, []romsim.Termination{term, {}}, romsim.Options{TEnd: 4e-9, Dt: 2e-12})
	if err != nil {
		t.Fatal(err)
	}
	return res.Ports[1]
}

func TestNonlinearSwitchingTracksSPICE(t *testing.T) {
	// The Section 4.2 claim: the nonlinear model reproduces the transistor-
	// level output transient closely. Compare 50% crossing and final value.
	const (
		rWire = 300.0
		cWire = 60e-15
		cLoad = 20e-15
	)
	c, tm := timingFor(t, "INV_X2")
	gold := spiceDriveWave(t, c, true, rWire, cWire, cLoad)
	drv, err := NewNonlinearSwitching(c, tm, true, 150e-12, 100e-12, cWire+cLoad)
	if err != nil {
		t.Fatal(err)
	}
	got := romDriveWave(t, drv.Termination(), rWire, cWire, cLoad)
	if math.Abs(got.End()-gold.End()) > 0.05 {
		t.Errorf("final value %g vs SPICE %g", got.End(), gold.End())
	}
	tGold, ok1 := gold.CrossTime(Vdd/2, true)
	tGot, ok2 := got.CrossTime(Vdd/2, true)
	if !ok1 || !ok2 {
		t.Fatal("missing 50% crossings")
	}
	if d := math.Abs(tGot - tGold); d > 100e-12 {
		t.Errorf("50%% crossing differs by %g s (SPICE %g, model %g)", d, tGold, tGot)
	}
}

func TestNonlinearHoldingClampsGlitch(t *testing.T) {
	// Inject a glitch current into a held-low net: the nonlinear holding
	// model must return to 0 V and never exceed the injected charge bound.
	c, _ := cells.ByName("INV_X1")
	drv, err := NewNonlinearHolding(c, cells.HoldLow)
	if err != nil {
		t.Fatal(err)
	}
	// Static check: the model resists positive excursions by sinking
	// current, more strongly at higher v.
	i1, _ := drv.Current(0.5, 0)
	i2, _ := drv.Current(1.5, 0)
	if i1 >= 0 || i2 >= i1 {
		t.Errorf("holding model should sink increasingly: I(0.5)=%g I(1.5)=%g", i1, i2)
	}
}

func TestLinearVsNonlinearHoldingAccuracy(t *testing.T) {
	// The headline Section 4 result: against the transistor-level reference,
	// the nonlinear holding model predicts large glitch peaks better than
	// the timing-library resistor. We emulate a glitch by coupling an
	// aggressor ramp into a held-low victim and compare peaks.
	const (
		rWire = 400.0
		cWire = 40e-15
		cc    = 60e-15
	)
	victim, tm := timingFor(t, "INV_X1")

	// Golden: transistor-level victim holding.
	goldNet := spice.NewNetlist("gold")
	asrc := goldNet.Node("asrc")
	a := goldNet.Node("a")
	v := goldNet.Node("v")
	vf := goldNet.Node("vf")
	vdd := goldNet.Node("vdd")
	goldNet.Drive(vdd, waveform.Const(Vdd))
	goldNet.Drive(asrc, waveform.Ramp(0, Vdd, 100e-12, 100e-12))
	goldNet.AddR(asrc, a, 150)
	goldNet.AddC(a, spice.Ground, cWire)
	if err := victim.BuildHolding(goldNet, "u", v, vdd, cells.HoldLow); err != nil {
		t.Fatal(err)
	}
	goldNet.AddR(v, vf, rWire)
	goldNet.AddC(vf, spice.Ground, cWire)
	goldNet.AddC(a, vf, cc)
	goldRes, err := goldNet.Transient(spice.Options{TEnd: 3e-9, Dt: 2e-12})
	if err != nil {
		t.Fatal(err)
	}
	goldW, _ := goldRes.Wave("vf")
	goldPeak := goldW.PeakDeviation(0).Abs

	// Model runs: same linear RC cluster, victim modeled two ways.
	runModel := func(term romsim.Termination) float64 {
		ckt := circuit.New("cl")
		na := ckt.Node("a")
		nv := ckt.Node("v")
		nvf := ckt.Node("vf")
		ckt.AddPort("adrv", na, circuit.PortDriver, 0)
		ckt.AddPort("vdrv", nv, circuit.PortDriver, 1)
		ckt.AddCapacitor("ca", na, circuit.Ground, cWire)
		ckt.AddResistor("rv", nv, nvf, rWire)
		ckt.AddCapacitor("cvf", nvf, circuit.Ground, cWire)
		ckt.AddCoupling("cc", na, nvf, cc)
		ckt.AddPort("vrcv", nvf, circuit.PortReceiver, 1)
		sys, err := mna.FromCircuit(ckt, mna.Options{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := sympvl.Reduce(sys, sympvl.Options{Order: 8})
		if err != nil {
			t.Fatal(err)
		}
		aggr := romsim.Termination{Linear: &romsim.Linear{G: 1 / 150.0, Vs: waveform.Ramp(0, Vdd, 100e-12, 100e-12)}}
		res, err := romsim.Simulate(m, []romsim.Termination{aggr, term, {}}, romsim.Options{TEnd: 3e-9, Dt: 2e-12})
		if err != nil {
			t.Fatal(err)
		}
		return res.Ports[2].PeakDeviation(0).Abs
	}
	nl, err := NewNonlinearHolding(victim, cells.HoldLow)
	if err != nil {
		t.Fatal(err)
	}
	nlPeak := runModel(nl.Termination())
	linPeak := runModel(NewLinearHolding(tm, cells.HoldLow).Termination())

	nlErr := math.Abs(nlPeak-goldPeak) / goldPeak
	linErr := math.Abs(linPeak-goldPeak) / goldPeak
	t.Logf("gold=%.4f nl=%.4f (%.1f%%) lin=%.4f (%.1f%%)", goldPeak, nlPeak, 100*nlErr, linPeak, 100*linErr)
	if nlErr > 0.25 {
		t.Errorf("nonlinear model error %.1f%% too large", 100*nlErr)
	}
	if nlErr > linErr+0.05 {
		t.Errorf("nonlinear model (%.1f%%) should not be clearly worse than linear (%.1f%%)", 100*nlErr, 100*linErr)
	}
}

func TestReceiverLoadCap(t *testing.T) {
	c, _ := cells.ByName("NAND2_X2")
	if ReceiverLoadCap(c) != c.InputCapF {
		t.Error("receiver load should equal input pin cap")
	}
}

var _ = devices.Vdd025

func TestBlendSwitchingLegacyModel(t *testing.T) {
	// The retained two-curve blend model: endpoint behaviour must match the
	// rail curves and it must remain continuous in time for the Newton loop.
	c, tm := timingFor(t, "INV_X2")
	drv, err := NewBlendSwitching(c, tm, true, 300e-12, 120e-12, 30e-15)
	if err != nil {
		t.Fatal(err)
	}
	iPre, _ := drv.Current(1.0, 0)
	if iPre >= 0 {
		t.Errorf("pre-transition blend should sink at 1V: %g", iPre)
	}
	iPost, _ := drv.Current(1.0, 10e-9)
	if iPost <= 0 {
		t.Errorf("post-transition blend should source at 1V: %g", iPost)
	}
	// Continuity across the blend window.
	prev, _ := drv.Current(1.0, 0)
	for k := 1; k <= 200; k++ {
		tt := float64(k) * 5e-12
		i, _ := drv.Current(1.0, tt)
		if math.Abs(i-prev) > 2e-3 {
			t.Fatalf("blend current jumps at t=%g: %g -> %g", tt, prev, i)
		}
		prev = i
	}
	if term := drv.Termination(); term.Dev == nil {
		t.Error("termination missing device")
	}
}

func TestBlendFallingDirection(t *testing.T) {
	c, tm := timingFor(t, "BUF_X2")
	drv, err := NewBlendSwitching(c, tm, false, 300e-12, 120e-12, 30e-15)
	if err != nil {
		t.Fatal(err)
	}
	// Long after a falling transition the pulldown holds: sinks above 0V.
	i, _ := drv.Current(1.0, 10e-9)
	if i >= 0 {
		t.Errorf("post-fall blend should sink: %g", i)
	}
}
