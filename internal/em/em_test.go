package em

import (
	"math"
	"testing"

	"xtverify/internal/dsp"
	"xtverify/internal/extract"
)

func extracted(t *testing.T, nWires int, lengthUM float64, driver string) *extract.Parasitics {
	t.Helper()
	d, err := dsp.ParallelWires(nWires, lengthUM, 1.2, []string{driver}, "INV_X1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := extract.Extract(d, extract.Tech025())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCurrentsArePhysical(t *testing.T) {
	p := extracted(t, 1, 1000, "INV_X4")
	r, err := AnalyzeNet(p, 0, Options{ActivityHz: 500e6})
	if err != nil {
		t.Fatal(err)
	}
	if r.IAvgA <= 0 || r.IRMSA <= 0 || r.IPeakA <= 0 {
		t.Fatalf("non-positive currents: %+v", r)
	}
	// Ordering: peak ≥ RMS ≥ avg for a bursty waveform.
	if !(r.IPeakA >= r.IRMSA && r.IRMSA >= r.IAvgA) {
		t.Errorf("expected peak >= rms >= avg: %.3g %.3g %.3g", r.IPeakA, r.IRMSA, r.IAvgA)
	}
	// Charge conservation sanity: the average |I| over the cycle must be
	// about 2·C·Vdd/T (one charge and one discharge per period).
	cTot := p.Nets[0].TotalCapF()
	for _, pa := range p.AppendPartners(nil, 0) {
		cTot += pa.Farads
	}
	want := 2 * cTot * 3.0 * 500e6
	if r.IAvgA < 0.5*want || r.IAvgA > 2*want {
		t.Errorf("avg current %.3g A far from CV·2f = %.3g A", r.IAvgA, want)
	}
	// Peak bounded by the driver's saturation capability.
	if r.IPeakA > 20e-3 {
		t.Errorf("peak current %.3g A beyond any X4 device", r.IPeakA)
	}
}

func TestActivityScalesAverageNotPeak(t *testing.T) {
	p := extracted(t, 1, 800, "INV_X2")
	slow, err := AnalyzeNet(p, 0, Options{ActivityHz: 100e6})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := AnalyzeNet(p, 0, Options{ActivityHz: 400e6})
	if err != nil {
		t.Fatal(err)
	}
	ratio := fast.IAvgA / slow.IAvgA
	if ratio < 2.5 || ratio > 6 {
		t.Errorf("avg current should scale ~linearly with activity: ratio %.2f", ratio)
	}
	// Peak is set by the driver, not the frequency.
	if math.Abs(fast.IPeakA-slow.IPeakA) > 0.3*slow.IPeakA {
		t.Errorf("peak should be activity-independent: %.3g vs %.3g", fast.IPeakA, slow.IPeakA)
	}
}

func TestStrongDriverOnNarrowWireViolates(t *testing.T) {
	// An X12 driver toggling a long minimum-width wire at high activity
	// must trip the RMS limit; a weak driver on a short wire must not.
	hot := extracted(t, 1, 4000, "INV_X12")
	r, err := AnalyzeNet(hot, 0, Options{ActivityHz: 800e6})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Violated() {
		t.Errorf("X12 on 4 mm wire at 800 MHz should violate: %+v", r)
	}
	cold := extracted(t, 1, 100, "INV_X1")
	rc, err := AnalyzeNet(cold, 0, Options{ActivityHz: 50e6})
	if err != nil {
		t.Fatal(err)
	}
	if rc.Violated() {
		t.Errorf("X1 on 100 µm at 50 MHz should pass: %+v", rc)
	}
}

func TestLimitsDefaults(t *testing.T) {
	l := DefaultLimits()
	if l.AvgAPerM != 1000 || l.RMSAPerM != 2000 || l.PeakAPerM != 10000 {
		t.Errorf("unexpected defaults: %+v", l)
	}
}
