package glitch

import (
	"context"
	"errors"
	"math"
	"testing"

	"xtverify/internal/obs"
)

// TestPreparedPairMatchesSeedPath pins the glitch-pair fast path: the batched
// rising+falling analysis must produce exactly the results of two sequential
// per-polarity analyses with the prepared layer disabled.
func TestPreparedPairMatchesSeedPath(t *testing.T) {
	p, cl := linesSetup(t, 3, 1000, "INV_X2")
	for _, model := range []ModelKind{ModelFixedR, ModelNonlinear} {
		on := NewEngine(p, Options{Model: model})
		off := NewEngine(p, Options{Model: model, DisablePrepared: true})

		gotR, gotF, err := on.AnalyzeGlitchPair(cl)
		if err != nil {
			t.Fatal(err)
		}
		wantR, wantF, err := off.AnalyzeGlitchPair(cl)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range []struct {
			name      string
			got, want *Result
		}{{"rising", gotR, wantR}, {"falling", gotF, wantF}} {
			if pair.got.PeakV != pair.want.PeakV || pair.got.PeakTime != pair.want.PeakTime {
				t.Errorf("model %v %s: prepared peak (%g @ %g) != seed (%g @ %g)", model, pair.name,
					pair.got.PeakV, pair.got.PeakTime, pair.want.PeakV, pair.want.PeakTime)
			}
			if pair.got.ReducedOrder != pair.want.ReducedOrder {
				t.Errorf("model %v %s: order %d != %d", model, pair.name,
					pair.got.ReducedOrder, pair.want.ReducedOrder)
			}
		}
	}
}

// TestPreparedReuseAcrossDelayEdges checks the memo actually amortizes: under
// ModelFixedR both victim edges share a conductance pattern, so running both
// edges back to back on one engine must reuse the decoupled and coupled
// Prepareds instead of re-diagonalizing, and the prepared and one-shot paths
// must agree on the measured delays.
func TestPreparedReuseAcrossDelayEdges(t *testing.T) {
	coll := obs.NewCollector()
	tr := coll.NewTrace()
	p, cl := linesSetup(t, 3, 1000, "INV_X2")
	e := NewEngine(p, Options{Model: ModelFixedR, TEnd: 8e-9, Trace: tr})
	off := NewEngine(p, Options{Model: ModelFixedR, TEnd: 8e-9, DisablePrepared: true})
	for _, rising := range []bool{true, false} {
		got, err := e.DelayImpact(context.Background(), cl, rising)
		if err != nil {
			t.Fatal(err)
		}
		want, err := off.DelayImpact(context.Background(), cl, rising)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("rising=%t: prepared impact %+v differs from one-shot %+v", rising, got, want)
		}
	}
	coll.MergeTrace("w1", "test", tr)
	s := coll.Snapshot()
	// Four delay transients over two conductance patterns (decoupled and
	// coupled): the second edge must hit the memo for both.
	if s.Counters["prepared_reuses"] < 2 {
		t.Errorf("prepared_reuses = %d, want >= 2 (all: %v)", s.Counters["prepared_reuses"], s.Counters)
	}
	if s.Counters["diagonalize_skipped"] < 2 {
		t.Errorf("diagonalize_skipped = %d, want >= 2", s.Counters["diagonalize_skipped"])
	}
}

// TestAnalyzeDelayContextCancelled pins the cancellation fix: a cancelled
// context must abort the delay transient instead of running it to completion.
func TestAnalyzeDelayContextCancelled(t *testing.T) {
	p, cl := linesSetup(t, 3, 1000, "INV_X2")
	e := NewEngine(p, Options{Model: ModelFixedR})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.AnalyzeDelayContext(ctx, cl, true, true); !errors.Is(err, context.Canceled) {
		t.Errorf("AnalyzeDelayContext error = %v, want context.Canceled", err)
	}
}

// TestAdviseRepairsContextCancelled pins the advisor's cancellation fix: the
// candidate sweep must honor the caller's context.
func TestAdviseRepairsContextCancelled(t *testing.T) {
	p, cl := linesSetup(t, 3, 1000, "INV_X2")
	e := NewEngine(p, Options{Model: ModelFixedR})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.AdviseRepairsContext(ctx, cl, true, 0.1); !errors.Is(err, context.Canceled) {
		t.Errorf("AdviseRepairsContext error = %v, want context.Canceled", err)
	}
}

// TestAdviseRepairsMatchesSeedPath checks the advisor's batched upsize sweep
// returns the options the sequential path returns.
func TestAdviseRepairsMatchesSeedPath(t *testing.T) {
	p, cl := linesSetup(t, 3, 1000, "INV_X2")
	on := NewEngine(p, Options{Model: ModelFixedR})
	off := NewEngine(p, Options{Model: ModelFixedR, DisablePrepared: true})
	got, err := on.AdviseRepairs(cl, true, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := off.AdviseRepairs(cl, true, 0.0)
	if err != nil {
		t.Fatal(err)
	}
	if got.OriginalPeakV != want.OriginalPeakV {
		t.Errorf("original peak %g != %g", got.OriginalPeakV, want.OriginalPeakV)
	}
	if len(got.Options) != len(want.Options) {
		t.Fatalf("option count %d != %d", len(got.Options), len(want.Options))
	}
	for i := range want.Options {
		if got.Options[i] != want.Options[i] {
			t.Errorf("option %d: prepared %+v != seed %+v", i, got.Options[i], want.Options[i])
		}
	}
}

// TestGlitchPairMatchesSinglePolarities pins one contract of the scenario
// executor on every path it chooses: under each driver model, on the
// prepared, the one-shot and the DirectMNA path, AnalyzeGlitchPair must
// return exactly what two AnalyzeGlitch calls return — peak, peak time,
// order and every receiver sample, bit for bit.
func TestGlitchPairMatchesSinglePolarities(t *testing.T) {
	p, cl := linesSetup(t, 3, 1000, "INV_X2")
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, model := range []struct {
		name string
		kind ModelKind
	}{{"fixed", ModelFixedR}, {"library", ModelTimingLibrary}, {"nonlinear", ModelNonlinear}} {
		for _, path := range []struct {
			name string
			opt  Options
		}{
			{"prepared", Options{}},
			{"one-shot", Options{DisablePrepared: true}},
			{"direct", Options{DirectMNA: true}},
		} {
			t.Run(model.name+"/"+path.name, func(t *testing.T) {
				opt := path.opt
				opt.Model = model.kind
				rise, fall, err := NewEngine(p, opt).AnalyzeGlitchPair(cl)
				if err != nil {
					t.Fatal(err)
				}
				single := NewEngine(p, opt)
				for _, got := range []struct {
					rising bool
					res    *Result
				}{{true, rise}, {false, fall}} {
					want, err := single.AnalyzeGlitch(cl, got.rising)
					if err != nil {
						t.Fatal(err)
					}
					g, w := got.res, want
					if !same(g.PeakV, w.PeakV) || !same(g.PeakTime, w.PeakTime) || g.ReducedOrder != w.ReducedOrder {
						t.Errorf("rising=%v: pair (%g @ %g, order %d) != single (%g @ %g, order %d)", got.rising,
							g.PeakV, g.PeakTime, g.ReducedOrder, w.PeakV, w.PeakTime, w.ReducedOrder)
					}
					if len(g.ReceiverWave.T) != len(w.ReceiverWave.T) {
						t.Fatalf("rising=%v: wave has %d samples, want %d", got.rising, len(g.ReceiverWave.T), len(w.ReceiverWave.T))
					}
					for i := range w.ReceiverWave.T {
						if !same(g.ReceiverWave.T[i], w.ReceiverWave.T[i]) || !same(g.ReceiverWave.V[i], w.ReceiverWave.V[i]) {
							t.Fatalf("rising=%v: wave sample %d differs: (%g, %g) != (%g, %g)", got.rising, i,
								g.ReceiverWave.T[i], g.ReceiverWave.V[i], w.ReceiverWave.T[i], w.ReceiverWave.V[i])
						}
					}
				}
			})
		}
	}
}
