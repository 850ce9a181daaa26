package glitch

import (
	"context"
	"math"
	"testing"

	"xtverify/internal/cells"
	"xtverify/internal/design"
	"xtverify/internal/dsp"
	"xtverify/internal/extract"
	"xtverify/internal/prune"
	"xtverify/internal/sta"
)

// linesSetup extracts the Figure 1 structure and returns the engine inputs
// with the middle wire as victim.
func linesSetup(t *testing.T, nWires int, lengthUM float64, drv string) (*extract.Parasitics, *prune.Cluster) {
	t.Helper()
	d, err := dsp.ParallelWires(nWires, lengthUM, 1.2, []string{drv}, "INV_X1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := extract.Extract(d, extract.Tech025())
	if err != nil {
		t.Fatal(err)
	}
	victim := nWires / 2
	cl := prune.PruneVictim(p, victim, prune.Options{CapRatioThreshold: 0.001, MinCouplingF: 1e-18})
	if len(cl.Aggressors) == 0 {
		t.Fatal("no aggressors kept")
	}
	return p, cl
}

func TestGlitchPolarity(t *testing.T) {
	p, cl := linesSetup(t, 3, 1000, "INV_X2")
	e := NewEngine(p, Options{Model: ModelFixedR})
	rise, err := e.AnalyzeGlitch(cl, true)
	if err != nil {
		t.Fatal(err)
	}
	if rise.PeakV <= 0 {
		t.Errorf("rising glitch peak %g, want positive", rise.PeakV)
	}
	fall, err := e.AnalyzeGlitch(cl, false)
	if err != nil {
		t.Fatal(err)
	}
	if fall.PeakV >= 0 {
		t.Errorf("falling glitch peak %g, want negative", fall.PeakV)
	}
	if rise.ActiveAggressors != 2 {
		t.Errorf("active aggressors %d, want 2", rise.ActiveAggressors)
	}
}

func TestGlitchGrowsWithCoupledLength(t *testing.T) {
	// The Table 1 monotonicity: longer coupled runs → larger peak glitch.
	peaks := make([]float64, 0, 3)
	for _, l := range []float64{100, 1000, 4000} {
		p, cl := linesSetup(t, 3, l, "INV_X2")
		e := NewEngine(p, Options{Model: ModelFixedR})
		res, err := e.AnalyzeGlitch(cl, true)
		if err != nil {
			t.Fatal(err)
		}
		peaks = append(peaks, res.PeakV)
	}
	if !(peaks[0] < peaks[1] && peaks[1] < peaks[2]) {
		t.Errorf("glitch not monotone in coupled length: %v", peaks)
	}
	if peaks[2] > Vdd {
		t.Errorf("glitch %g exceeds supply", peaks[2])
	}
}

func TestROMvsSPICESameModels(t *testing.T) {
	// The Figure 3 property: with identical linear 1 kΩ drivers in both
	// engines, the only difference is reduced-order modeling error, which
	// must be tiny (paper: avg 0.24%, max 1.05%).
	p, cl := linesSetup(t, 4, 1500, "INV_X4")
	e := NewEngine(p, Options{Model: ModelFixedR, FixedOhms: 1000})
	rom, err := e.AnalyzeGlitch(cl, true)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := e.SPICEGlitch(cl, true, false)
	if err != nil {
		t.Fatal(err)
	}
	relErr := math.Abs(rom.PeakV-ref.PeakV) / math.Abs(ref.PeakV)
	t.Logf("ROM peak %.4f V, SPICE peak %.4f V, err %.3f%%", rom.PeakV, ref.PeakV, 100*relErr)
	if relErr > 0.02 {
		t.Errorf("MOR error %.2f%% exceeds 2%%", 100*relErr)
	}
}

func TestNonlinearROMvsTransistorSPICE(t *testing.T) {
	// The Figure 6 property: nonlinear cell model against transistor-level
	// SPICE keeps peak errors within roughly ±10% for sizable glitches.
	p, cl := linesSetup(t, 3, 2500, "INV_X2")
	e := NewEngine(p, Options{Model: ModelNonlinear})
	rom, err := e.AnalyzeGlitch(cl, true)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := e.SPICEGlitch(cl, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if ref.PeakV < 0.1*Vdd {
		t.Fatalf("reference glitch %.3f too small for the comparison", ref.PeakV)
	}
	relErr := math.Abs(rom.PeakV-ref.PeakV) / ref.PeakV
	t.Logf("ROM(nl) %.4f V, SPICE(tr) %.4f V, err %.2f%%", rom.PeakV, ref.PeakV, 100*relErr)
	if relErr > 0.15 {
		t.Errorf("nonlinear-model error %.1f%% exceeds 15%%", 100*relErr)
	}
}

func TestTimingWindowsSuppressAggressors(t *testing.T) {
	d, err := dsp.Generate(dsp.Config{Seed: 21, Channels: 1, TracksPerChannel: 60, ChannelLengthUM: 1200, LatchFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	p, err := extract.Extract(d, extract.Tech025())
	if err != nil {
		t.Fatal(err)
	}
	if err := sta.Annotate(d, p); err != nil {
		t.Fatal(err)
	}
	cls := prune.Clusters(p, prune.Options{CapRatioThreshold: 0.01, MinCouplingF: 0.1e-15})
	if len(cls) == 0 {
		t.Fatal("no clusters")
	}
	// Find a cluster where windows actually exclude someone; verify the
	// peak does not increase with windows on.
	for _, cl := range cls {
		if len(cl.Aggressors) < 2 {
			continue
		}
		off := NewEngine(p, Options{Model: ModelFixedR})
		on := NewEngine(p, Options{Model: ModelFixedR, UseTimingWindows: true})
		pOff, err := off.AnalyzeGlitch(cl, true)
		if err != nil {
			t.Fatal(err)
		}
		pOn, err := on.AnalyzeGlitch(cl, true)
		if err != nil {
			t.Fatal(err)
		}
		if pOn.ActiveAggressors < pOff.ActiveAggressors {
			if pOn.PeakV > pOff.PeakV+1e-6 {
				t.Errorf("windows increased glitch: %.4f → %.4f", pOff.PeakV, pOn.PeakV)
			}
			return // found and verified an exclusion
		}
	}
	t.Log("no window exclusions in this population (acceptable)")
}

func TestLogicCorrelationReducesGlitch(t *testing.T) {
	// Three wires: both outer aggressors are complementary outputs of one
	// flip-flop; with correlation on, one must switch the other way and the
	// glitch shrinks.
	d, err := dsp.ParallelWires(3, 1200, 1.2, []string{"DFF_X2"}, "INV_X1")
	if err != nil {
		t.Fatal(err)
	}
	d.MarkComplementary(0, 2)
	p, err := extract.Extract(d, extract.Tech025())
	if err != nil {
		t.Fatal(err)
	}
	cl := prune.PruneVictim(p, 1, prune.Options{CapRatioThreshold: 0.001, MinCouplingF: 1e-18})
	off := NewEngine(p, Options{Model: ModelFixedR})
	on := NewEngine(p, Options{Model: ModelFixedR, UseLogicCorrelation: true})
	pOff, err := off.AnalyzeGlitch(cl, true)
	if err != nil {
		t.Fatal(err)
	}
	pOn, err := on.AnalyzeGlitch(cl, true)
	if err != nil {
		t.Fatal(err)
	}
	if pOn.PeakV >= pOff.PeakV {
		t.Errorf("correlation should reduce glitch: %.4f vs %.4f", pOn.PeakV, pOff.PeakV)
	}
	inverted := 0
	for _, a := range pOn.Aggressors {
		if a.Inverted {
			inverted++
		}
	}
	if inverted != 1 {
		t.Errorf("%d aggressors inverted, want 1", inverted)
	}
}

func TestBusStrongestDriverRule(t *testing.T) {
	// Victim coupled to a tri-state bus with mixed-strength drivers: the
	// plan must pick the strongest.
	d := design.New("bus")
	tb1, _ := cells.ByName("TBUF_X1")
	tb8, _ := cells.ByName("TBUF_X8")
	inv, _ := cells.ByName("INV_X2")
	rcv, _ := cells.ByName("INV_X1")
	bus := &design.Net{
		Name: "bus",
		Drivers: []design.Pin{
			{Inst: "b1", Cell: tb1, Pin: "Z", PosX: 0, PosY: 0},
			{Inst: "b8", Cell: tb8, Pin: "Z", PosX: 600, PosY: 0},
		},
		Receivers: []design.Pin{{Inst: "r", Cell: rcv, Pin: "A", PosX: 1200, PosY: 0}},
		Route:     []design.Segment{{Layer: 2, X0: 0, Y0: 0, X1: 1200, Y1: 0, Width: 0.6}},
	}
	d.AddNet(bus)
	vict := &design.Net{
		Name:      "victim",
		Drivers:   []design.Pin{{Inst: "v", Cell: inv, Pin: "Z", PosX: 0, PosY: 1.2}},
		Receivers: []design.Pin{{Inst: "vr", Cell: rcv, Pin: "A", PosX: 1200, PosY: 1.2}},
		Route:     []design.Segment{{Layer: 2, X0: 0, Y0: 1.2, X1: 1200, Y1: 1.2, Width: 0.6}},
	}
	d.AddNet(vict)
	p, err := extract.Extract(d, extract.Tech025())
	if err != nil {
		t.Fatal(err)
	}
	cl := prune.PruneVictim(p, 1, prune.Options{CapRatioThreshold: 0.001, MinCouplingF: 1e-18})
	e := NewEngine(p, Options{Model: ModelFixedR})
	res, err := e.AnalyzeGlitch(cl, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Aggressors) != 1 || res.Aggressors[0].Cell.Name != "TBUF_X8" {
		t.Errorf("bus aggressor cell = %v, want TBUF_X8", res.Aggressors[0].Cell.Name)
	}
	if res.PeakV <= 0 {
		t.Error("no glitch from bus aggressor")
	}
}

func TestDelayWithCouplingWorse(t *testing.T) {
	// The Table 2 property: opposite-switching aggressors lengthen the
	// victim's delay versus the decoupled baseline.
	p, cl := linesSetup(t, 3, 2000, "INV_X2")
	e := NewEngine(p, Options{Model: ModelTimingLibrary, TEnd: 6e-9})
	with, err := e.AnalyzeDelay(cl, true, true)
	if err != nil {
		t.Fatal(err)
	}
	without, err := e.AnalyzeDelay(cl, true, false)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("rise delay: %.1f ps coupled vs %.1f ps decoupled", with.Delay*1e12, without.Delay*1e12)
	if with.Delay <= without.Delay {
		t.Errorf("coupling should worsen delay: %g vs %g", with.Delay, without.Delay)
	}
	if without.Delay <= 0 {
		t.Errorf("decoupled delay %g not positive", without.Delay)
	}
}

func TestQuietAggressorStillLoads(t *testing.T) {
	// A window-excluded aggressor must still be present as a load (its
	// driver holds the line), not vanish from the cluster.
	p, cl := linesSetup(t, 3, 1000, "INV_X2")
	// Force both aggressors quiet by making windows disjoint.
	p.Design.Nets[0].Window = design.Window{Early: 0, Late: 1e-12, Valid: true}
	p.Design.Nets[2].Window = design.Window{Early: 0, Late: 1e-12, Valid: true}
	p.Design.Nets[1].Window = design.Window{Early: 1e-9, Late: 2e-9, Valid: true}
	e := NewEngine(p, Options{Model: ModelFixedR, UseTimingWindows: true})
	res, err := e.AnalyzeGlitch(cl, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.ActiveAggressors != 0 {
		t.Fatalf("aggressors not silenced: %d", res.ActiveAggressors)
	}
	if math.Abs(res.PeakV) > 0.01 {
		t.Errorf("quiet aggressors produced %.4f V glitch", res.PeakV)
	}
}

func TestSpeedupCountersAvailable(t *testing.T) {
	p, cl := linesSetup(t, 3, 800, "INV_X2")
	e := NewEngine(p, Options{Model: ModelFixedR})
	ref, err := e.SPICEGlitch(cl, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Steps == 0 || ref.Factorizations == 0 || ref.Nodes == 0 {
		t.Errorf("missing cost counters: %+v", ref)
	}
}

func TestTimingImpactReport(t *testing.T) {
	p, _ := linesSetup(t, 3, 1500, "INV_X2")
	cl1 := prune.PruneVictim(p, 1, prune.Options{CapRatioThreshold: 0.001, MinCouplingF: 1e-18})
	cl0 := prune.PruneVictim(p, 0, prune.Options{CapRatioThreshold: 0.001, MinCouplingF: 1e-18})
	e := NewEngine(p, Options{Model: ModelTimingLibrary, TEnd: 8e-9})
	impacts := make([]TimingImpact, 2)
	for i, cl := range []*prune.Cluster{cl0, cl1} {
		var err error
		if impacts[i], err = e.DelayImpact(context.Background(), cl, true); err != nil {
			t.Fatal(err)
		}
	}
	SortImpacts(impacts)
	// Middle wire (two aggressors) suffers more than the edge wire.
	var mid, edge *TimingImpact
	for i := range impacts {
		if impacts[i].Victim == "w1" {
			mid = &impacts[i]
		} else {
			edge = &impacts[i]
		}
	}
	if mid == nil || edge == nil {
		t.Fatal("victims missing from report")
	}
	if mid.DeltaS <= edge.DeltaS {
		t.Errorf("two-aggressor victim delta %.3g should exceed one-aggressor %.3g", mid.DeltaS, edge.DeltaS)
	}
	if mid.DeteriorationPct <= 0 {
		t.Errorf("deterioration %.1f%% should be positive", mid.DeteriorationPct)
	}
	// Sorted worst first.
	if impacts[0].DeltaS < impacts[1].DeltaS {
		t.Error("not sorted by delay change")
	}
	// Coupled slews degrade too.
	if mid.CoupledSlew <= 0 || mid.BaseSlew <= 0 {
		t.Error("slews not measured")
	}
}

func TestAdviseRepairs(t *testing.T) {
	// A weak victim between strong aggressors: every fix must reduce the
	// glitch, and shielding must be the most effective.
	p, cl := linesSetup(t, 3, 2000, "INV_X8")
	// Victim driver is also INV_X8 in linesSetup; rebuild with weak victim.
	d, err := dsp.ParallelWires(3, 2000, 1.2, []string{"INV_X8", "INV_X1", "INV_X8"}, "INV_X1")
	if err != nil {
		t.Fatal(err)
	}
	p, err = extract.Extract(d, extract.Tech025())
	if err != nil {
		t.Fatal(err)
	}
	cl = prune.PruneVictim(p, 1, prune.Options{CapRatioThreshold: 0.001, MinCouplingF: 1e-18})
	e := NewEngine(p, Options{Model: ModelNonlinear, TEnd: 5e-9})
	advice, err := e.AdviseRepairs(cl, true, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if advice.OriginalPeakV <= 0.3 {
		t.Fatalf("fixture glitch %.3f too small to need repair", advice.OriginalPeakV)
	}
	if len(advice.Options) != 3 {
		t.Fatalf("%d options", len(advice.Options))
	}
	byFix := map[Fix]RepairOption{}
	for _, o := range advice.Options {
		byFix[o.Fix] = o
		if o.Feasible && math.Abs(o.PeakV) >= advice.OriginalPeakV {
			t.Errorf("%s did not reduce the glitch: %.3f vs %.3f", o.Fix, o.PeakV, advice.OriginalPeakV)
		}
	}
	shield := byFix[FixShieldVictim]
	respace := byFix[FixDoubleSpacing]
	if math.Abs(shield.PeakV) >= math.Abs(respace.PeakV) {
		t.Errorf("shield (%.3f) should beat respacing (%.3f)", shield.PeakV, respace.PeakV)
	}
	if !shield.Clears {
		t.Errorf("shield should clear a 0.3V threshold: %.3f", shield.PeakV)
	}
	// Upsize is feasible for INV_X1 (next is X2).
	if up := byFix[FixUpsizeDriver]; !up.Feasible || up.Detail != "INV_X2" {
		t.Errorf("upsize option wrong: %+v", up)
	}
	if advice.Recommended() == nil {
		t.Error("no recommended fix despite shield clearing")
	}
}

func TestAdviseRepairsInfeasibleUpsize(t *testing.T) {
	// Strongest inverter as victim driver: upsizing must report infeasible.
	d, err := dsp.ParallelWires(2, 1000, 1.2, []string{"INV_X8", "INV_X12"}, "INV_X1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := extract.Extract(d, extract.Tech025())
	if err != nil {
		t.Fatal(err)
	}
	cl := prune.PruneVictim(p, 1, prune.Options{CapRatioThreshold: 0.001, MinCouplingF: 1e-18})
	e := NewEngine(p, Options{Model: ModelFixedR})
	advice, err := e.AdviseRepairs(cl, true, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range advice.Options {
		if o.Fix == FixUpsizeDriver && o.Feasible {
			t.Errorf("INV_X12 upsize should be infeasible: %+v", o)
		}
	}
}
