package noiseprop

import (
	"math"
	"testing"

	"xtverify/internal/cells"
	"xtverify/internal/design"
	"xtverify/internal/extract"
	"xtverify/internal/waveform"
)

// chainDesign builds a fanout chain: net0 -> inv1 -> net1 -> inv2 -> net2,
// with net2 feeding a latch. All nets are short so the gates dominate.
func chainDesign(t *testing.T, driverNames []string) *extract.Parasitics {
	t.Helper()
	d := design.New("chain")
	latch, _ := cells.ByName("LATCH_X1")
	rcv, _ := cells.ByName("INV_X1")
	for i, drvName := range driverNames {
		drv, ok := cells.ByName(drvName)
		if !ok {
			t.Fatalf("cell %s", drvName)
		}
		y := float64(i) * 30 // far apart: no cross coupling
		receiver := rcv
		if i == len(driverNames)-1 {
			receiver = latch
		}
		net := &design.Net{
			Name:      "n" + string(rune('0'+i)),
			Drivers:   []design.Pin{{Inst: "u" + string(rune('0'+i)), Cell: drv, Pin: "Z", PosX: 0, PosY: y}},
			Receivers: []design.Pin{{Inst: "r" + string(rune('0'+i)), Cell: receiver, Pin: "D", PosX: 80, PosY: y}},
			Route:     []design.Segment{{Layer: 2, X0: 0, Y0: y, X1: 80, Y1: y, Width: 0.6}},
		}
		if i > 0 {
			net.Fanins = []int{i - 1}
		}
		d.AddNet(net)
	}
	par, err := extract.Extract(d, extract.Tech025())
	if err != nil {
		t.Fatal(err)
	}
	return par
}

// pulse builds a triangular glitch waveform of the given amplitude on a
// quiet-low net.
func pulse(amplitude float64) *waveform.Waveform {
	w := waveform.New(8)
	w.Append(0, 0)
	w.Append(200e-12, 0)
	w.Append(500e-12, amplitude)
	w.Append(900e-12, 0)
	w.Append(4e-9, 0)
	return w
}

func TestLargeGlitchPropagatesToLatch(t *testing.T) {
	par := chainDesign(t, []string{"INV_X2", "INV_X2", "INV_X2"})
	p := New(par)
	// A 2.2 V glitch is far above any inverter threshold: it must propagate
	// through both downstream inverters and reach the latch input.
	res, err := p.Propagate(0, pulse(2.2), false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Depth != 2 {
		t.Fatalf("depth = %d, want 2 (chain: %+v)", res.Depth, res.Chain)
	}
	if !res.ReachedLatch {
		t.Error("pulse should reach the latch")
	}
	// Alternating quiet levels through inverters.
	if res.Chain[0].QuietHigh || !res.Chain[1].QuietHigh || res.Chain[2].QuietHigh {
		t.Errorf("quiet levels wrong: %+v", res.Chain)
	}
	// Stage 1's disturbance is a falling pulse from a quiet-high net.
	if res.Chain[1].PeakV >= 0 {
		t.Errorf("inverted stage should dip low: %g", res.Chain[1].PeakV)
	}
}

func TestSmallGlitchFiltered(t *testing.T) {
	par := chainDesign(t, []string{"INV_X2", "INV_X2", "INV_X2"})
	p := New(par)
	// 0.4 V is below the inverter's unity-gain corner: the first gate
	// attenuates it below the dying threshold.
	res, err := p.Propagate(0, pulse(0.4), false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Depth != 0 {
		t.Errorf("small glitch propagated %d stages: %+v", res.Depth, res.Chain)
	}
	if res.ReachedLatch {
		t.Error("filtered pulse flagged as reaching latch")
	}
}

func TestMarginalGlitchDiesAlongChain(t *testing.T) {
	par := chainDesign(t, []string{"INV_X2", "INV_X2", "INV_X2", "INV_X2"})
	p := New(par)
	// Sweep amplitudes: propagation depth must be monotone in amplitude.
	prevDepth := -1
	for _, amp := range []float64{0.3, 1.0, 2.5} {
		res, err := p.Propagate(0, pulse(amp), false)
		if err != nil {
			t.Fatal(err)
		}
		if res.Depth < prevDepth {
			t.Errorf("depth not monotone in amplitude: %d after %d", res.Depth, prevDepth)
		}
		prevDepth = res.Depth
	}
	if prevDepth < 1 {
		t.Errorf("2.5 V glitch should propagate at least one stage, got %d", prevDepth)
	}
}

func TestRegenerationSharpensPulse(t *testing.T) {
	// CMOS gates regenerate: a rail-exceeding input produces a full-rail
	// output pulse, so amplitude should not decay for a strong injection.
	par := chainDesign(t, []string{"INV_X4", "INV_X4", "INV_X4"})
	p := New(par)
	res, err := p.Propagate(0, pulse(2.5), false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Depth < 2 {
		t.Fatalf("strong pulse died early: %+v", res.Chain)
	}
	if a := math.Abs(res.Chain[2].PeakV); a < 2.0 {
		t.Errorf("regenerated amplitude %g should stay near full rail", a)
	}
}
