package xtverify

// Benchmark harness: one benchmark per paper table/figure (DESIGN.md §4)
// plus the ablations of §5. Populations are scaled down so `go test -bench`
// completes in minutes; cmd/repro runs the full-scale versions. Accuracy
// quantities are attached as custom metrics (errpct, speedup, ...) so the
// *shape* results ride along with the timing.

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"xtverify/internal/cellmodel"
	"xtverify/internal/cells"
	"xtverify/internal/circuit"
	"xtverify/internal/dsp"
	"xtverify/internal/exp"
	"xtverify/internal/extract"
	"xtverify/internal/glitch"
	"xtverify/internal/mna"
	"xtverify/internal/prune"
	"xtverify/internal/romsim"
	"xtverify/internal/spice"
	"xtverify/internal/sta"
	"xtverify/internal/stats"
	"xtverify/internal/sympvl"
	"xtverify/internal/waveform"
)

func benchDSP() dsp.Config {
	return dsp.Config{Seed: 1999, Channels: 1, TracksPerChannel: 80,
		ChannelLengthUM: 1500, BusFraction: 0.05, LatchFraction: 0.3, ClockSpines: 1}
}

// BenchmarkTable1 regenerates Table 1 (peak glitch vs coupled length).
func BenchmarkTable1(b *testing.B) {
	var last *exp.Table1Result
	for i := 0; i < b.N; i++ {
		r, err := exp.RunTable1()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Rows[len(last.Rows)-1].GlitchV, "ckt4-glitch-V")
}

// BenchmarkTable2 regenerates Table 2 (delays with/without coupling).
func BenchmarkTable2(b *testing.B) {
	var last *exp.Table2Result
	for i := 0; i < b.N; i++ {
		r, err := exp.RunTable2()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	r4 := last.Rows[3]
	b.ReportMetric((r4.RiseWith-r4.RiseWithout)*1e12, "ckt4-rise-penalty-ps")
}

var benchAccuracyCells = []string{"INV_X1", "INV_X4", "NAND2_X2", "NOR2_X1", "BUF_X2", "DFF_X1"}

// BenchmarkTable3 regenerates Table 3 (timing-library model accuracy) at
// reduced population.
func BenchmarkTable3(b *testing.B) {
	var last *exp.ModelAccuracyResult
	for i := 0; i < b.N; i++ {
		r, err := exp.RunModelAccuracy(glitch.ModelTimingLibrary,
			exp.AccuracyConfig{LengthsPerCell: 4}, benchAccuracyCells)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Summary.AbsMean, "avg-abs-errpct")
	b.ReportMetric(100*last.PctWithin10, "pct-within-10")
}

// BenchmarkTable4 regenerates Table 4 (nonlinear cell model accuracy).
func BenchmarkTable4(b *testing.B) {
	var last *exp.ModelAccuracyResult
	for i := 0; i < b.N; i++ {
		r, err := exp.RunModelAccuracy(glitch.ModelNonlinear,
			exp.AccuracyConfig{LengthsPerCell: 4}, benchAccuracyCells)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Summary.AbsMean, "avg-abs-errpct")
	b.ReportMetric(100*last.PctWithin10, "pct-within-10")
}

// BenchmarkFig3Speedup regenerates Figure 3 (MPVL vs SPICE with identical
// 1 kΩ drivers) at reduced population.
func BenchmarkFig3Speedup(b *testing.B) {
	var last *exp.Fig3Result
	for i := 0; i < b.N; i++ {
		r, err := exp.RunFig3(exp.Fig3Config{MaxClusters: 15, DSP: benchDSP()})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.AvgAbsErrPct, "avg-abs-errpct")
	b.ReportMetric(last.MaxAbsErrPct, "max-abs-errpct")
	b.ReportMetric(last.Speedup, "speedup-x")
}

// BenchmarkFig45 regenerates the Figure 4/5 waveform comparison.
func BenchmarkFig45(b *testing.B) {
	var last *exp.WaveComparison
	for i := 0; i < b.N; i++ {
		r, err := exp.RunFig45(exp.Fig3Config{MaxClusters: 8, DSP: benchDSP()})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(math.Abs(last.ErrPct), "worst-case-errpct")
}

// BenchmarkFig6Speedup regenerates Figure 6 (rising, nonlinear model vs
// transistor-level SPICE on latch-input victims).
func BenchmarkFig6Speedup(b *testing.B) {
	var last *exp.Fig67Result
	for i := 0; i < b.N; i++ {
		r, err := exp.RunFig67(true, exp.Fig67Config{MaxVictims: 10, DSP: benchDSP()})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Over10.Min, "min-errpct")
	b.ReportMetric(last.Over10.Max, "max-errpct")
	b.ReportMetric(last.Speedup, "speedup-x")
}

// BenchmarkFig7Speedup is the falling-edge counterpart (Figure 7).
func BenchmarkFig7Speedup(b *testing.B) {
	var last *exp.Fig67Result
	for i := 0; i < b.N; i++ {
		r, err := exp.RunFig67(false, exp.Fig67Config{MaxVictims: 10, DSP: benchDSP()})
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Over10.Min, "min-errpct")
	b.ReportMetric(last.Over10.Max, "max-errpct")
	b.ReportMetric(last.Speedup, "speedup-x")
}

// BenchmarkPruning regenerates the Section 3 cluster statistics.
func BenchmarkPruning(b *testing.B) {
	var last *exp.PruneResult
	for i := 0; i < b.N; i++ {
		r, err := exp.RunPruneStats(benchDSP())
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.Stats.RawMeanSize, "raw-mean-nets")
	b.ReportMetric(last.Stats.PrunedMeanSize, "pruned-mean-nets")
}

// --- Core-kernel benchmarks --------------------------------------------

// benchCluster prepares a mid-size coupled cluster once.
func benchCluster(b *testing.B) (*extract.Parasitics, *prune.Cluster) {
	b.Helper()
	d, err := dsp.ParallelWires(5, 2000, 1.2, []string{"INV_X4"}, "INV_X1")
	if err != nil {
		b.Fatal(err)
	}
	par, err := extract.Extract(d, extract.Tech025())
	if err != nil {
		b.Fatal(err)
	}
	cl := prune.PruneVictim(par, 2, prune.Options{CapRatioThreshold: 0.001, MinCouplingF: 1e-18})
	return par, cl
}

// BenchmarkSyMPVLReduce measures the model-order-reduction kernel alone.
func BenchmarkSyMPVLReduce(b *testing.B) {
	par, cl := benchCluster(b)
	ckt, err := prune.BuildCircuit(par, cl)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := mna.FromCircuit(ckt, mna.Options{})
	if err != nil {
		b.Fatal(err)
	}
	// One reusable workspace, as the glitch engine holds per analysis engine:
	// steady-state allocation is what the analysis loop actually pays.
	ws := &sympvl.Workspace{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sympvl.Reduce(sys, sympvl.Options{Order: 36, Workspace: ws}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkROMTransient measures one reduced-order glitch transient with
// fixed-resistance drivers. Every termination is linear, so each step takes
// the closed-form diagonal solve and Newton never iterates;
// BenchmarkAblationWoodbury/woodbury times the device-port Newton path.
func BenchmarkROMTransient(b *testing.B) {
	par, cl := benchCluster(b)
	eng := glitch.NewEngine(par, glitch.Options{Model: glitch.ModelFixedR, FixedOhms: 1000, TEnd: 5e-9})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.AnalyzeGlitch(cl, true); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSPICETransient measures the same analysis in the reference
// engine; the ratio to BenchmarkROMTransient is the paper's headline
// speedup.
func BenchmarkSPICETransient(b *testing.B) {
	par, cl := benchCluster(b)
	eng := glitch.NewEngine(par, glitch.Options{Model: glitch.ModelFixedR, FixedOhms: 1000, TEnd: 5e-9})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.SPICEGlitch(cl, true, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGlitchClusterScenarios measures the full multi-scenario sweep a
// cluster undergoes during verification and timing recalculation — both
// glitch polarities plus both delay edges, coupled and decoupled — with the
// prepared/batched transient layer on ("prepared") and off ("seed", the
// historical Simulate-per-scenario path). Both run against the same warm ROM
// cache; the gap is what amortizing the termination fold, diagonalization
// and fingerprint lookups across scenarios saves. Results are bit-identical
// either way (TestPreparedByteIdenticalToSeedPath).
func BenchmarkGlitchClusterScenarios(b *testing.B) {
	par, cl := benchCluster(b)
	run := func(b *testing.B, disable bool) {
		eng := glitch.NewEngine(par, glitch.Options{
			Model: glitch.ModelFixedR, FixedOhms: 1000, TEnd: 5e-9,
			DisablePrepared: disable,
		})
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := eng.AnalyzeGlitchPairContext(ctx, cl); err != nil {
				b.Fatal(err)
			}
			for _, withCoupling := range []bool{false, true} {
				for _, rising := range []bool{true, false} {
					if _, err := eng.AnalyzeDelayContext(ctx, cl, rising, withCoupling); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	}
	b.Run("seed", func(b *testing.B) { run(b, true) })
	b.Run("prepared", func(b *testing.B) { run(b, false) })
}

// --- Ablations (DESIGN.md §5) -------------------------------------------

// BenchmarkAblationOrder sweeps the reduced order and reports the glitch
// error against the exhaustive (full-order) model.
func BenchmarkAblationOrder(b *testing.B) {
	par, cl := benchCluster(b)
	run := func(order int) float64 {
		eng := glitch.NewEngine(par, glitch.Options{
			Model: glitch.ModelFixedR, FixedOhms: 1000, TEnd: 5e-9, Order: order,
		})
		res, err := eng.AnalyzeGlitch(cl, true)
		if err != nil {
			b.Fatal(err)
		}
		return res.PeakV
	}
	exact := run(200) // effectively exhaustive for this cluster
	for _, order := range []int{4, 8, 16, 32} {
		order := order
		b.Run(orderName(order), func(b *testing.B) {
			var peak float64
			for i := 0; i < b.N; i++ {
				peak = run(order)
			}
			b.ReportMetric(100*math.Abs(peak-exact)/exact, "errpct-vs-full")
		})
	}
}

func orderName(q int) string {
	return fmt.Sprintf("q=%02d", q)
}

// BenchmarkAblationPrune sweeps the capacitance-ratio threshold and reports
// the cluster-size / retained-coupling trade.
func BenchmarkAblationPrune(b *testing.B) {
	d, err := dsp.Generate(benchDSP())
	if err != nil {
		b.Fatal(err)
	}
	par, err := extract.Extract(d, extract.Tech025())
	if err != nil {
		b.Fatal(err)
	}
	for _, th := range []float64{0.005, 0.02, 0.08} {
		th := th
		b.Run(thName(th), func(b *testing.B) {
			var s prune.Stats
			for i := 0; i < b.N; i++ {
				s = prune.ComputeStats(par, prune.Options{CapRatioThreshold: th, MinCouplingF: 0.1e-15})
			}
			b.ReportMetric(s.PrunedMeanSize, "mean-cluster-nets")
			b.ReportMetric(100*s.KeptCouplingFrac, "kept-coupling-pct")
		})
	}
}

func thName(th float64) string {
	switch th {
	case 0.005:
		return "th=0.005"
	case 0.02:
		return "th=0.020"
	default:
		return "th=0.080"
	}
}

// BenchmarkAblationWoodbury compares the diagonal-plus-rank-k Newton solve
// (paper Eq. 7) against a dense LU at every Newton step.
func BenchmarkAblationWoodbury(b *testing.B) {
	par, cl := benchCluster(b)
	ckt, err := prune.BuildCircuit(par, cl)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := mna.FromCircuit(ckt, mna.Options{})
	if err != nil {
		b.Fatal(err)
	}
	model, err := sympvl.Reduce(sys, sympvl.Options{Order: 48})
	if err != nil {
		b.Fatal(err)
	}
	victim, _ := cells.ByName("INV_X4")
	hold, err := cellmodel.NewNonlinearHolding(victim, cells.HoldLow)
	if err != nil {
		b.Fatal(err)
	}
	terms := make([]romsim.Termination, model.Ports)
	for i := range terms {
		terms[i] = romsim.Termination{Linear: &romsim.Linear{G: 1e-3, Vs: waveform.Ramp(0, 3, 100e-12, 100e-12)}}
	}
	// A couple of nonlinear ports so the rank-k path is exercised.
	terms[0] = hold.Termination()
	terms[1] = hold.Termination()
	for _, dense := range []bool{false, true} {
		dense := dense
		name := "woodbury"
		if dense {
			name = "dense-lu"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, err := romsim.Simulate(model, terms, romsim.Options{
					TEnd: 3e-9, Dt: 2e-12, DenseNewton: dense,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationDriverForm compares the two nonlinear driver
// formulations (I–V surface vs two-curve blend) on short-wire accuracy,
// where the difference is largest.
func BenchmarkAblationDriverForm(b *testing.B) {
	d, err := dsp.ParallelWires(2, 150, 1.2, []string{"BUF_X4", "INV_X1"}, "INV_X1")
	if err != nil {
		b.Fatal(err)
	}
	par, err := extract.Extract(d, extract.Tech025())
	if err != nil {
		b.Fatal(err)
	}
	cl := prune.PruneVictim(par, 1, prune.Options{CapRatioThreshold: 0.001, MinCouplingF: 1e-18})
	eng := glitch.NewEngine(par, glitch.Options{Model: glitch.ModelNonlinear, TEnd: 3e-9})
	gold, err := eng.SPICEGlitch(cl, true, true)
	if err != nil {
		b.Fatal(err)
	}
	agg, _ := cells.ByName("BUF_X4")
	tm, err := cells.CharacterizeCached(agg)
	if err != nil {
		b.Fatal(err)
	}
	load := par.Nets[0].TotalCapF()
	b.Run("surface", func(b *testing.B) {
		var peak float64
		for i := 0; i < b.N; i++ {
			res, err := eng.AnalyzeGlitch(cl, true)
			if err != nil {
				b.Fatal(err)
			}
			peak = res.PeakV
		}
		b.ReportMetric(100*math.Abs(peak-gold.PeakV)/gold.PeakV, "errpct-vs-spice")
	})
	b.Run("blend", func(b *testing.B) {
		var peak float64
		for i := 0; i < b.N; i++ {
			blend, err := cellmodel.NewBlendSwitching(agg, tm, true, 200e-12, 120e-12, load)
			if err != nil {
				b.Fatal(err)
			}
			peak = blendGlitch(b, par, cl, blend)
		}
		b.ReportMetric(100*math.Abs(peak-gold.PeakV)/gold.PeakV, "errpct-vs-spice")
	})
}

// blendGlitch simulates the 2-wire cluster with an explicit aggressor device
// and a nonlinear holding victim.
func blendGlitch(b *testing.B, par *extract.Parasitics, cl *prune.Cluster, aggDev romsim.Device) float64 {
	b.Helper()
	ckt, err := prune.BuildCircuit(par, cl)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := mna.FromCircuit(ckt, mna.Options{})
	if err != nil {
		b.Fatal(err)
	}
	model, err := sympvl.Reduce(sys, sympvl.Options{Order: 6 * sys.P})
	if err != nil {
		b.Fatal(err)
	}
	victim, _ := cells.ByName("INV_X1")
	hold, err := cellmodel.NewNonlinearHolding(victim, cells.HoldLow)
	if err != nil {
		b.Fatal(err)
	}
	terms := make([]romsim.Termination, model.Ports)
	// Port order from BuildCircuit: victim driver, aggressor driver, victim
	// receiver.
	terms[0] = hold.Termination()
	terms[1] = romsim.Termination{Dev: aggDev}
	res, err := romsim.Simulate(model, terms, romsim.Options{TEnd: 3e-9, Dt: 2e-12})
	if err != nil {
		b.Fatal(err)
	}
	return res.Ports[2].PeakDeviation(0).Value
}

// BenchmarkChipVerify is the rung-0 screening headline: end-to-end
// verification of a local-interconnect-dominated DSP block (short channel
// spans at relaxed routing pitch — the provably-quiet population a real
// floorplan is mostly made of) with the analytic screen on versus off.
// Screened clusters never assemble an MNA system, build a ROM, or run a
// transient, so the "screen" variant's cluster throughput is the
// optimization's measured win; the violation list is identical either way
// (TestScreeningReportIdentity). Reported metrics: clusters/sec and the
// fraction of clusters cleared at rung 0.
func BenchmarkChipVerify(b *testing.B) {
	cfg := DSPConfig{Seed: 1999, Channels: 2, TracksPerChannel: 80,
		ChannelLengthUM: 70, BusFraction: 0.05, LatchFraction: 0.25,
		ClockSpines: 1, TrackPitchUM: 1.8}
	run := func(b *testing.B, noScreen bool) {
		var clusters, screened int
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			v, err := NewVerifierFromDSP(cfg, Config{Model: TimingLibrary, DisableScreening: noScreen})
			if err != nil {
				b.Fatal(err)
			}
			rep, err := v.Run()
			if err != nil {
				b.Fatal(err)
			}
			clusters = rep.AnalyzedVictims
			if rep.Screening != nil {
				screened = rep.Screening.Screened
			}
		}
		elapsed := time.Since(start)
		b.ReportMetric(float64(clusters*b.N)/elapsed.Seconds(), "clusters/sec")
		b.ReportMetric(float64(screened)/float64(clusters), "screened-frac")
	}
	// Warm the cell characterization cache so neither variant pays it.
	if v, err := NewVerifierFromDSP(cfg, Config{Model: TimingLibrary}); err == nil {
		if _, err := v.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("no-screen", func(b *testing.B) { run(b, true) })
	b.Run("screen", func(b *testing.B) { run(b, false) })
}

// BenchmarkFullChipVerify measures the end-to-end public API flow.
func BenchmarkFullChipVerify(b *testing.B) {
	cfg := DSPConfig{Seed: 7, Channels: 1, TracksPerChannel: 40, ChannelLengthUM: 800,
		BusFraction: 0.05, LatchFraction: 0.25, ClockSpines: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := NewVerifierFromDSP(cfg, Config{Model: FixedResistance})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := v.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSTA measures window annotation on the bench design.
func BenchmarkSTA(b *testing.B) {
	d, err := dsp.Generate(benchDSP())
	if err != nil {
		b.Fatal(err)
	}
	par, err := extract.Extract(d, extract.Tech025())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sta.Annotate(d, par); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtraction measures the synthetic extractor.
func BenchmarkExtraction(b *testing.B) {
	d, err := dsp.Generate(benchDSP())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := extract.Extract(d, extract.Tech025()); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = stats.Summarize // keep stats linked for metric helpers

// BenchmarkAnalyticBaseline regenerates the closed-form prior-art
// comparison (DESIGN.md extension experiments).
func BenchmarkAnalyticBaseline(b *testing.B) {
	var last *exp.AnalyticResult
	for i := 0; i < b.N; i++ {
		r, err := exp.RunAnalytic()
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	// Ratio of closed-form to SPICE at the longest line: the pessimism the
	// detailed flow removes.
	row := last.Rows[len(last.Rows)-1]
	b.ReportMetric(row.ChargeShareV/row.SPICEV, "bound-pessimism-x")
}

// BenchmarkTimingImpact measures the chip-level timing recalculation.
func BenchmarkTimingImpact(b *testing.B) {
	var last *exp.TimingImpactResult
	for i := 0; i < b.N; i++ {
		r, err := exp.RunTimingImpact(benchDSP(), 25)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(last.DeterioratePct.Mean, "mean-deterioration-pct")
}

// BenchmarkEMAudit measures the electromigration current audit, generation
// and extraction included.
func BenchmarkEMAudit(b *testing.B) {
	cfg := DSPConfig{Seed: 3, Channels: 1, TracksPerChannel: 30, ChannelLengthUM: 900, ClockSpines: 1}
	violations := 0
	for i := 0; i < b.N; i++ {
		v, err := NewVerifierFromDSP(cfg, Config{})
		if err != nil {
			b.Fatal(err)
		}
		rs, err := v.RunEM(EMOptions{ActivityHz: 200e6})
		if err != nil {
			b.Fatal(err)
		}
		violations = 0
		for _, r := range rs {
			if r.Violation {
				violations++
			}
		}
	}
	b.ReportMetric(float64(violations), "violations")
}

// BenchmarkSPICEAdaptive contrasts adaptive and fixed-step SPICE transients
// on the same cluster (substrate ablation).
func BenchmarkSPICEAdaptive(b *testing.B) {
	par, cl := benchCluster(b)
	ckt, err := prune.BuildCircuit(par, cl)
	if err != nil {
		b.Fatal(err)
	}
	buildNet := func() *spice.Netlist {
		net := spice.NewNetlist("ad")
		nodeOf := make([]spice.Node, ckt.NumNodes())
		for i := range nodeOf {
			nodeOf[i] = net.Node(ckt.NodeName(circuit.NodeID(i)))
		}
		for _, r := range ckt.Resistors {
			net.AddR(nodeOf[r.A], nodeOf[r.B], r.Ohms)
		}
		for _, c := range ckt.Capacitors {
			a, bb := spice.Ground, spice.Ground
			if c.A != circuit.Ground {
				a = nodeOf[c.A]
			}
			if c.B != circuit.Ground {
				bb = nodeOf[c.B]
			}
			net.AddC(a, bb, c.Farads)
		}
		// Drive the first port node, observe the rest.
		net.Drive(nodeOf[ckt.Ports[0].Node], waveform.Ramp(0, 3, 200e-12, 120e-12))
		return net
	}
	for _, adaptive := range []bool{false, true} {
		adaptive := adaptive
		name := "fixed"
		if adaptive {
			name = "adaptive"
		}
		b.Run(name, func(b *testing.B) {
			var steps int
			for i := 0; i < b.N; i++ {
				res, err := buildNet().Transient(spice.Options{TEnd: 4e-9, Dt: 2e-12, Adaptive: adaptive})
				if err != nil {
					b.Fatal(err)
				}
				steps = res.Steps
			}
			b.ReportMetric(float64(steps), "steps")
		})
	}
}

// BenchmarkPropagation measures the chip-level noise-propagation study
// (extension X5).
func BenchmarkPropagation(b *testing.B) {
	var last *exp.PropagationResult
	for i := 0; i < b.N; i++ {
		r, err := exp.RunPropagation(benchDSP(), 10, 0.10)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	b.ReportMetric(float64(last.ReachedLatch), "reached-latch")
	b.ReportMetric(float64(last.Filtered), "filtered")
}

// reverifyBenchDEF renders BenchmarkReverify's design as DEF — the
// BenchmarkChipVerify DSP at a relaxed 1.8 µm pitch, 162 nets — and returns
// the config it is verified under (TimingLibrary, 148 clusters).
func reverifyBenchDEF(tb testing.TB) (string, Config) {
	tb.Helper()
	dspCfg := DSPConfig{Seed: 1999, Channels: 2, TracksPerChannel: 80,
		ChannelLengthUM: 70, BusFraction: 0.05, LatchFraction: 0.25,
		ClockSpines: 1, TrackPitchUM: 1.8}
	cfg := Config{Model: TimingLibrary}
	gen, err := NewVerifierFromDSP(dspCfg, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	var sb strings.Builder
	if err := gen.WriteDEF(&sb); err != nil {
		tb.Fatal(err)
	}
	return sb.String(), cfg
}

// BenchmarkReverify measures the incremental ECO splice against the full
// re-run it replaces, on the BenchmarkChipVerify design (~148 clusters): one
// driver upsize, then Reverify per iteration vs one timed cold Run of the
// edited design. speedup-x is the acceptance gate (>= 10x); the spliced
// report is byte-compared against the cold run every iteration.
func BenchmarkReverify(b *testing.B) {
	baseDEF, cfg := reverifyBenchDEF(b)
	baseV, err := NewVerifierFromDEF(strings.NewReader(baseDEF), cfg)
	if err != nil {
		b.Fatal(err)
	}
	baseRep, err := baseV.Run()
	if err != nil {
		b.Fatal(err)
	}
	// Repair the first victim whose driver has a stronger same-kind cell:
	// violations first, then any analyzed cluster.
	var candidates []string
	for _, viol := range baseRep.Violations {
		candidates = append(candidates, viol.Victim)
	}
	for _, out := range baseRep.Diagnostics.Clusters {
		candidates = append(candidates, out.Victim)
	}
	var defText string
	for _, victim := range candidates {
		if d, uerr := upsizeInDEF(baseDEF, victim); uerr == nil {
			defText = d
			break
		}
	}
	if defText == "" {
		b.Fatal("no repairable victim on the bench design")
	}
	base, err := baseV.BaseRun(baseRep)
	if err != nil {
		b.Fatal(err)
	}

	// The baseline this replaces: a cold full run (parse + verify) of the
	// edited design. Best of three, so a scheduler hiccup on one run cannot
	// inflate the reported speedup.
	var fullDur time.Duration
	var want string
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		coldV, err := NewVerifierFromDEF(strings.NewReader(defText), cfg)
		if err != nil {
			b.Fatal(err)
		}
		coldRep, err := coldV.Run()
		if err != nil {
			b.Fatal(err)
		}
		if d := time.Since(t0); i == 0 || d < fullDur {
			fullDur = d
		}
		want = identityText(b, coldRep)
	}

	// One untimed warm-up splice absorbs lazy one-time initialization.
	if wv, err := NewVerifierFromDEF(strings.NewReader(defText), cfg); err != nil {
		b.Fatal(err)
	} else if _, _, err := wv.Reverify(base); err != nil {
		b.Fatal(err)
	}

	var reused, recomputed int
	var spliceTotal time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		v, err := NewVerifierFromDEF(strings.NewReader(defText), cfg)
		if err != nil {
			b.Fatal(err)
		}
		rep, stats, err := v.Reverify(base)
		if err != nil {
			b.Fatal(err)
		}
		spliceTotal += time.Since(t0)
		reused, recomputed = stats.ClustersReused, stats.ClustersRecomputed
		if got := identityText(b, rep); got != want {
			b.Fatal("spliced report differs from cold full run")
		}
	}
	b.StopTimer()
	if reused == 0 {
		b.Fatal("splice reused nothing; the benchmark is measuring a full run")
	}
	splicePerOp := spliceTotal / time.Duration(b.N)
	b.ReportMetric(float64(fullDur)/float64(splicePerOp), "speedup-x")
	b.ReportMetric(float64(reused), "clusters-reused")
	b.ReportMetric(float64(recomputed), "clusters-recomputed")
	b.ReportMetric(float64(fullDur)/float64(time.Millisecond), "full-run-ms")
}

// BenchmarkChipStream is the streaming-ingest headline: the same chip
// verified materialized versus streamed (Config.StreamIngest), reporting net
// throughput and the sampled peak heap. The report bytes are provably
// identical (TestStreamReportIdentityDSP); the streamed variant's
// peak-heap-MB is the optimization's measured win — extraction, clustering
// and verification overlap, no whole-chip design or parasitics are ever
// held, and each component's analysis views are released as its clusters
// finish.
func BenchmarkChipStream(b *testing.B) {
	cfg := DSPConfig{Seed: 1999, Channels: 100, TracksPerChannel: 400,
		ChannelLengthUM: 70, BusFraction: 0.05, LatchFraction: 0.25,
		ClockSpines: 1, TrackPitchUM: 1.8}
	run := func(b *testing.B, stream bool) {
		runtime.GC()
		var peak uint64 // owned by the sampler; read after <-done
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			var m runtime.MemStats
			for {
				select {
				case <-stop:
					return
				default:
				}
				runtime.ReadMemStats(&m)
				if m.HeapAlloc > peak {
					peak = m.HeapAlloc
				}
				time.Sleep(time.Millisecond)
			}
		}()
		var nets int
		b.ResetTimer()
		start := time.Now()
		for i := 0; i < b.N; i++ {
			v, err := NewVerifierFromDSP(cfg, Config{Model: FixedResistance, StreamIngest: stream})
			if err != nil {
				b.Fatal(err)
			}
			rep, err := v.RunContext(context.Background())
			if err != nil {
				b.Fatal(err)
			}
			nets = rep.NetCount
		}
		elapsed := time.Since(start)
		close(stop)
		<-done
		b.ReportMetric(float64(nets*b.N)/elapsed.Seconds(), "nets/sec")
		b.ReportMetric(float64(peak)/(1<<20), "peak-heap-MB")
	}
	b.Run("materialized", func(b *testing.B) { run(b, false) })
	b.Run("stream", func(b *testing.B) { run(b, true) })
}
