package romsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"xtverify/internal/matrix"
	"xtverify/internal/obs"
	"xtverify/internal/waveform"
)

// glitchTerms is the canonical 3-port glitch scenario over coupledPair:
// aggressor driver ramps, victim driver holds, receiver open.
func glitchTerms(aggressor waveform.Source) []Termination {
	return []Termination{
		{Linear: &Linear{G: 1 / 200.0, Vs: aggressor}},
		{Linear: &Linear{G: 1 / 1000.0, Vs: waveform.Const(0)}},
		{},
	}
}

// requireBitIdentical compares two results sample by sample with exact
// floating-point equality: the prepared layer's contract is bit identity
// with the per-Simulate path, not mere closeness.
func requireBitIdentical(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if want.Steps != got.Steps {
		t.Fatalf("%s: steps %d != %d", label, got.Steps, want.Steps)
	}
	if want.NewtonIterations != got.NewtonIterations {
		t.Fatalf("%s: newton iterations %d != %d", label, got.NewtonIterations, want.NewtonIterations)
	}
	if len(want.Ports) != len(got.Ports) {
		t.Fatalf("%s: port count %d != %d", label, len(got.Ports), len(want.Ports))
	}
	for j := range want.Ports {
		ww, gw := want.Ports[j], got.Ports[j]
		if ww.Len() != gw.Len() {
			t.Fatalf("%s: port %d sample count %d != %d", label, j, gw.Len(), ww.Len())
		}
		for i := range ww.T {
			if ww.T[i] != gw.T[i] || ww.V[i] != gw.V[i] {
				t.Fatalf("%s: port %d sample %d: (%g, %g) != (%g, %g)",
					label, j, i, gw.T[i], gw.V[i], ww.T[i], ww.V[i])
			}
		}
	}
}

func TestPreparedRunBitIdenticalToSimulate(t *testing.T) {
	m := reduce(t, coupledPair(6, 6e-15), 12)
	opt := Options{TEnd: 3e-9, Dt: 2e-12}
	rising := glitchTerms(waveform.Ramp(0, 3, 50e-12, 100e-12))
	falling := glitchTerms(waveform.Ramp(3, 0, 50e-12, 100e-12))

	wantR, err := Simulate(m, rising, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantF, err := Simulate(m, falling, opt)
	if err != nil {
		t.Fatal(err)
	}

	p, err := Prepare(m, rising, opt)
	if err != nil {
		t.Fatal(err)
	}
	gotR, err := p.Run(Scenario{Terms: rising})
	if err != nil {
		t.Fatal(err)
	}
	// The falling edge shares the conductance pattern: one Prepared serves
	// both polarities.
	gotF, err := p.Run(Scenario{Terms: falling})
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, wantR, gotR, "rising")
	requireBitIdentical(t, wantF, gotF, "falling")
}

func TestPreparedRunBitIdenticalWithDevice(t *testing.T) {
	// A nonlinear victim hold exercises the Woodbury path through the
	// prepared stepping loop.
	m := reduce(t, coupledPair(5, 8e-15), 10)
	opt := Options{TEnd: 2e-9, Dt: 2e-12}
	terms := []Termination{
		{Linear: &Linear{G: 1 / 200.0, Vs: waveform.Ramp(0, 3, 50e-12, 100e-12)}},
		{Dev: linearDevice{g: 1 / 1000.0, vs: waveform.Const(0)}},
		{},
	}
	want, err := Simulate(m, terms, opt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(m, terms, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Run(Scenario{Terms: terms})
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, want, got, "device victim")
}

// TestPreparedFromCoreBitIdenticalWithDevice pins the .prep restore path on
// the Woodbury solve: a Prepared rebuilt from its persisted core must step
// every scenario bit for bit like the one it was extracted from, with equal
// Newton and Woodbury counts, in Run and in RunBatch.
func TestPreparedFromCoreBitIdenticalWithDevice(t *testing.T) {
	m := reduce(t, coupledPair(5, 8e-15), 10)
	opt := Options{TEnd: 2e-9, Dt: 2e-12}
	// A linear aggressor, a saturating device hold and an open receiver
	// exercise the fold, the device port and the observation port at once.
	termsFor := func(aggressor waveform.Source) []Termination {
		return []Termination{
			{Linear: &Linear{G: 1 / 200.0, Vs: aggressor}},
			{Dev: saturatingHold{}},
			{},
		}
	}
	termSets := [][]Termination{
		termsFor(waveform.Ramp(0, 3, 50e-12, 100e-12)),
		termsFor(waveform.Ramp(3, 0, 50e-12, 100e-12)),
	}
	p, err := Prepare(m, termSets[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := PreparedFromCore(p.Core())
	if err != nil {
		t.Fatal(err)
	}

	woodbury := func(run func(tr *obs.Trace)) int64 {
		coll := obs.NewCollector()
		tr := coll.NewTrace()
		run(tr)
		coll.MergeTrace("net", "test", tr)
		return coll.Snapshot().Counters["woodbury_solves"]
	}
	for i, terms := range termSets {
		var want, got *Result
		wantW := woodbury(func(tr *obs.Trace) { want, err = p.Run(Scenario{Terms: terms, Trace: tr}) })
		if err != nil {
			t.Fatal(err)
		}
		gotW := woodbury(func(tr *obs.Trace) { got, err = restored.Run(Scenario{Terms: terms, Trace: tr}) })
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("run %d", i)
		requireBitIdentical(t, want, got, label)
		if want.NewtonIterations <= want.Steps {
			t.Fatalf("%s: %d Newton iterations over %d steps; the device port never iterated", label, want.NewtonIterations, want.Steps)
		}
		if wantW == 0 || gotW != wantW {
			t.Fatalf("%s: woodbury solves %d restored, %d prepared", label, gotW, wantW)
		}
	}

	scs := make([]Scenario, len(termSets))
	for i, terms := range termSets {
		scs[i] = Scenario{Terms: terms}
	}
	want, werrs := p.RunBatch(scs)
	got, gerrs := restored.RunBatch(scs)
	for i := range scs {
		if werrs[i] != nil || gerrs[i] != nil {
			t.Fatalf("batch column %d: prepared %v, restored %v", i, werrs[i], gerrs[i])
		}
		requireBitIdentical(t, want[i], got[i], fmt.Sprintf("batch column %d", i))
	}
}

// TestDotsIntoMatchesDot pins the interleaved dot products of the stepping
// loop to matrix.Dot bit for bit, for odd and even counts. The entries span
// many magnitudes, so a sum taken in another order would round differently.
func TestDotsIntoMatchesDot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	y := make([]float64, 37)
	for i := range y {
		y[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(17)-8))
	}
	for n := 0; n <= 5; n++ {
		xs := make([][]float64, n)
		for k := range xs {
			xs[k] = make([]float64, len(y))
			for i := range xs[k] {
				xs[k][i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(17)-8))
			}
		}
		out := make([]float64, n)
		dotsInto(out, xs, y)
		for k := range xs {
			if want := matrix.Dot(xs[k], y); math.Float64bits(out[k]) != math.Float64bits(want) {
				t.Fatalf("%d vectors: dot %d = %x, want %x", n, k, math.Float64bits(out[k]), math.Float64bits(want))
			}
		}
	}
}

func TestRunBatchBitIdenticalToSequentialRuns(t *testing.T) {
	m := reduce(t, coupledPair(6, 6e-15), 12)
	opt := Options{TEnd: 3e-9, Dt: 2e-12}
	termSets := [][]Termination{
		glitchTerms(waveform.Ramp(0, 3, 50e-12, 100e-12)),
		glitchTerms(waveform.Ramp(3, 0, 50e-12, 100e-12)),
		glitchTerms(waveform.Ramp(0, 3, 200e-12, 300e-12)),
	}

	serial, err := Prepare(m, termSets[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Result, len(termSets))
	for i, terms := range termSets {
		if want[i], err = serial.Run(Scenario{Terms: terms}); err != nil {
			t.Fatal(err)
		}
	}

	batched, err := Prepare(m, termSets[0], opt)
	if err != nil {
		t.Fatal(err)
	}
	scs := make([]Scenario, len(termSets))
	for i, terms := range termSets {
		scs[i] = Scenario{Terms: terms}
	}
	got, errs := batched.RunBatch(scs)
	for i, e := range errs {
		if e != nil {
			t.Fatalf("scenario %d: %v", i, e)
		}
		requireBitIdentical(t, want[i], got[i], fmt.Sprintf("scenario %d", i))
	}
}

func TestPatternKeyAndMatches(t *testing.T) {
	base := glitchTerms(waveform.Ramp(0, 3, 50e-12, 100e-12))
	// Same pattern, different source waveform: same key, Matches true.
	other := glitchTerms(waveform.Const(3))
	if PatternKey(base) != PatternKey(other) {
		t.Errorf("keys differ for identical conductance patterns")
	}
	// Different conductance: different key.
	stronger := glitchTerms(waveform.Const(3))
	stronger[1] = Termination{Linear: &Linear{G: 1 / 500.0, Vs: waveform.Const(0)}}
	if PatternKey(base) == PatternKey(stronger) {
		t.Errorf("keys equal despite different victim conductance")
	}
	// Different kind on a port: different key.
	device := glitchTerms(waveform.Const(3))
	device[1] = Termination{Dev: linearDevice{g: 1 / 1000.0, vs: waveform.Const(0)}}
	if PatternKey(base) == PatternKey(device) {
		t.Errorf("keys equal despite linear vs device victim")
	}

	m := reduce(t, coupledPair(4, 6e-15), 10)
	p, err := Prepare(m, base, Options{TEnd: 1e-9, Dt: 2e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Matches(other) {
		t.Errorf("Matches rejected a same-pattern termination set")
	}
	if p.Matches(stronger) || p.Matches(device) || p.Matches(base[:2]) {
		t.Errorf("Matches accepted a mismatched termination set")
	}
}

func TestRunRejectsPatternMismatch(t *testing.T) {
	m := reduce(t, coupledPair(4, 6e-15), 10)
	base := glitchTerms(waveform.Ramp(0, 3, 50e-12, 100e-12))
	p, err := Prepare(m, base, Options{TEnd: 1e-9, Dt: 2e-12})
	if err != nil {
		t.Fatal(err)
	}
	wrong := glitchTerms(waveform.Ramp(0, 3, 50e-12, 100e-12))
	wrong[0] = Termination{Linear: &Linear{G: 1 / 300.0, Vs: waveform.Const(0)}}
	if _, err := p.Run(Scenario{Terms: wrong}); !errors.Is(err, ErrPatternMismatch) {
		t.Errorf("Run error = %v, want ErrPatternMismatch", err)
	}
	res, errs := p.RunBatch([]Scenario{{Terms: wrong}, {Terms: base}})
	if !errors.Is(errs[0], ErrPatternMismatch) {
		t.Errorf("batch scenario 0 error = %v, want ErrPatternMismatch", errs[0])
	}
	if res[0] != nil {
		t.Errorf("mismatched scenario returned a result")
	}
	if errs[1] != nil || res[1] == nil {
		t.Errorf("valid scenario alongside a mismatch failed: %v", errs[1])
	}
}

func TestBatchColumnIsolation(t *testing.T) {
	// One column's Check failure must not disturb the surviving columns:
	// they finish bit-identical to a solo run.
	m := reduce(t, coupledPair(6, 6e-15), 12)
	opt := Options{TEnd: 3e-9, Dt: 2e-12}
	terms := glitchTerms(waveform.Ramp(0, 3, 50e-12, 100e-12))

	solo, err := Prepare(m, terms, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := solo.Run(Scenario{Terms: terms})
	if err != nil {
		t.Fatal(err)
	}

	p, err := Prepare(m, terms, opt)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("cancelled mid-flight")
	calls := 0
	failing := Scenario{Terms: terms, Check: func() error {
		calls++
		if calls > 10 {
			return boom
		}
		return nil
	}}
	res, errs := p.RunBatch([]Scenario{failing, {Terms: terms}})
	if !errors.Is(errs[0], boom) {
		t.Fatalf("failing column error = %v, want %v", errs[0], boom)
	}
	if res[0] != nil {
		t.Errorf("failing column returned a result")
	}
	if errs[1] != nil {
		t.Fatalf("surviving column failed: %v", errs[1])
	}
	requireBitIdentical(t, want, res[1], "surviving column")
}

func TestPreparedCounters(t *testing.T) {
	m := reduce(t, coupledPair(5, 6e-15), 10)
	opt := Options{TEnd: 1e-9, Dt: 2e-12}
	terms := glitchTerms(waveform.Ramp(0, 3, 50e-12, 100e-12))

	coll := obs.NewCollector()
	tr := coll.NewTrace()
	p, err := Prepare(m, terms, Options{TEnd: opt.TEnd, Dt: opt.Dt, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	scs := []Scenario{
		{Terms: terms, Trace: tr},
		{Terms: glitchTerms(waveform.Ramp(3, 0, 50e-12, 100e-12)), Trace: tr},
		{Terms: glitchTerms(waveform.Const(0)), Trace: tr},
	}
	if _, errs := p.RunBatch(scs); errs[0] != nil || errs[1] != nil || errs[2] != nil {
		t.Fatal(errs)
	}
	if _, err := p.Run(Scenario{Terms: terms, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	coll.MergeTrace("net", "test", tr)
	s := coll.Snapshot()
	if got := s.Counters["scenarios_batched"]; got != 3 {
		t.Errorf("scenarios_batched = %d, want 3 (the solo Run is not batched)", got)
	}
	// Four scenarios ran against one Prepared; every one after the first
	// skipped a diagonalization the per-Simulate path would repeat.
	if got := s.Counters["diagonalize_skipped"]; got != 3 {
		t.Errorf("diagonalize_skipped = %d, want 3", got)
	}
	if s.Counters["newton_iterations"] <= 0 {
		t.Errorf("missing stepping counters: %v", s.Counters)
	}
}
