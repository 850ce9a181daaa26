package extract

import (
	"math"
	"testing"

	"xtverify/internal/dsp"
)

func TestTwoWireExtraction(t *testing.T) {
	d, err := dsp.ParallelWires(2, 1000, 1.2, []string{"INV_X2"}, "INV_X1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Extract(d, Tech025())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Nets) != 2 {
		t.Fatalf("%d nets extracted", len(p.Nets))
	}
	tech := Tech025()
	rc := p.Nets[0]
	// Total resistance = r·L.
	rTot := 0.0
	for _, r := range rc.Res {
		rTot += r.Ohms
	}
	wantR := tech.ROhmPerUM * 1000
	if math.Abs(rTot-wantR) > 1e-9*wantR {
		t.Errorf("net resistance %g, want %g", rTot, wantR)
	}
	// Segmentation respects MaxSegUM: 1000/25 = 40 resistors.
	if len(rc.Res) != 40 {
		t.Errorf("%d segments, want 40", len(rc.Res))
	}
	// Grounded wire cap = cg·L plus pin caps.
	wireCap := tech.CgFPerUM * 1000
	pinCap := d.Nets[0].Drivers[0].Cell.OutDiffCapF + d.Nets[0].Receivers[0].Cell.InputCapF
	if got := rc.TotalCapF(); math.Abs(got-(wireCap+pinCap)) > 1e-20 {
		t.Errorf("net cap %g, want %g", got, wireCap+pinCap)
	}
	// Coupling: full-length parallel run at min pitch → Cc0·L total.
	ccTot := 0.0
	for _, c := range p.Couplings {
		if c.NetA != c.NetB {
			ccTot += c.Farads
		}
	}
	wantCC := tech.Cc0FPerUM * 1000 * (tech.MinSpacingUM / 1.2)
	if math.Abs(ccTot-wantCC) > 0.02*wantCC {
		t.Errorf("total coupling %g, want ≈%g", ccTot, wantCC)
	}
}

func TestCouplingFallsWithSpacing(t *testing.T) {
	ccAt := func(pitch float64) float64 {
		d, err := dsp.ParallelWires(2, 500, pitch, []string{"INV_X2"}, "INV_X1")
		if err != nil {
			t.Fatal(err)
		}
		p, err := Extract(d, Tech025())
		if err != nil {
			t.Fatal(err)
		}
		tot := 0.0
		for _, c := range p.Couplings {
			tot += c.Farads
		}
		return tot
	}
	close := ccAt(0.6)
	far := ccAt(2.0)
	if far >= close {
		t.Errorf("coupling should fall with spacing: %g at 0.6µm vs %g at 2µm", close, far)
	}
	// Beyond the window: no coupling at all.
	if none := ccAt(5.0); none != 0 {
		t.Errorf("coupling beyond window = %g, want 0", none)
	}
}

func TestCouplingDominatesForMinPitch(t *testing.T) {
	// The paper's premise: at minimum pitch with neighbours on both sides,
	// coupling exceeds 70% of total capacitance for long wires. Use bare
	// wire stats (middle wire of three).
	d, err := dsp.ParallelWires(3, 2000, 1.2, []string{"INV_X2"}, "INV_X1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Extract(d, Tech025())
	if err != nil {
		t.Fatal(err)
	}
	mid := p.Nets[1]
	wireCg := 0.0
	for _, c := range mid.CapF {
		wireCg += c
	}
	// Remove pin caps for the wire-only comparison.
	wireCg -= d.Nets[1].Drivers[0].Cell.OutDiffCapF + d.Nets[1].Receivers[0].Cell.InputCapF
	cc := 0.0
	for _, pa := range p.AppendPartners(nil, 1) {
		cc += pa.Farads
	}
	frac := cc / (cc + wireCg)
	if frac < 0.60 {
		t.Errorf("coupling fraction %.2f below the DSM regime", frac)
	}
}

func TestPartnersSymmetric(t *testing.T) {
	d, err := dsp.ParallelWires(3, 400, 1.2, []string{"INV_X2"}, "INV_X1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Extract(d, Tech025())
	if err != nil {
		t.Fatal(err)
	}
	total := make(map[[2]int]float64)
	for i := range p.Nets {
		for _, pa := range p.AppendPartners(nil, i) {
			total[[2]int{i, pa.Net}] = pa.Farads
		}
	}
	if len(total) == 0 {
		t.Fatal("no coupling partners")
	}
	for ij, f := range total {
		if got, ok := total[[2]int{ij[1], ij[0]}]; !ok || got != f {
			t.Errorf("coupling partners asymmetric: (%d,%d)=%g vs (%d,%d)=%g", ij[0], ij[1], f, ij[1], ij[0], got)
		}
	}
}

func TestPinAttachment(t *testing.T) {
	d, err := dsp.ParallelWires(1, 300, 1.2, []string{"BUF_X4"}, "NAND2_X1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Extract(d, Tech025())
	if err != nil {
		t.Fatal(err)
	}
	rc := p.Nets[0]
	if len(rc.DriverNodes) != 1 || len(rc.ReceiverNodes) != 1 {
		t.Fatal("pin nodes missing")
	}
	// Driver at x=0, receiver at x=300.
	if rc.NodeX[rc.DriverNodes[0]] != 0 {
		t.Errorf("driver node at x=%g", rc.NodeX[rc.DriverNodes[0]])
	}
	if rc.NodeX[rc.ReceiverNodes[0]] != 300 {
		t.Errorf("receiver node at x=%g", rc.NodeX[rc.ReceiverNodes[0]])
	}
}

func TestExtractionDeterministic(t *testing.T) {
	gen := func() Stats {
		d, err := dsp.Generate(dsp.Config{Seed: 7, Channels: 1, TracksPerChannel: 20, ChannelLengthUM: 600, LatchFraction: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		p, err := Extract(d, Tech025())
		if err != nil {
			t.Fatal(err)
		}
		return p.Stats()
	}
	a, b := gen(), gen()
	if a != b {
		t.Errorf("extraction not deterministic: %+v vs %+v", a, b)
	}
}

func TestDSPExtractionStats(t *testing.T) {
	d, err := dsp.Generate(dsp.Config{Seed: 3, Channels: 2, TracksPerChannel: 40, ChannelLengthUM: 1200, LatchFraction: 0.25, BusFraction: 0.05, ClockSpines: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := Extract(d, Tech025())
	if err != nil {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Nets != len(d.Nets) {
		t.Errorf("nets %d vs %d", s.Nets, len(d.Nets))
	}
	if s.Couplings == 0 {
		t.Error("no couplings extracted from channel-routed design")
	}
	if s.CouplingFrac < 0.1 {
		t.Errorf("coupling fraction %.2f suspiciously low for channel routing", s.CouplingFrac)
	}
	if s.Resistors == 0 || s.Nodes == 0 {
		t.Error("empty extraction")
	}
}
