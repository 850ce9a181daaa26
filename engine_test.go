package xtverify

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// engineVerifier builds the small test design for engine tests.
func engineVerifier(t *testing.T, cfg Config) *Verifier {
	t.Helper()
	v, err := NewVerifierFromDSP(smallDSP(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// compareViolations checks got against want victim by victim: exact equality
// everywhere except the named victim, whose peak may deviate by tol (a
// fallback rung integrates a slightly different system).
func compareViolations(t *testing.T, got, want []Violation, except string, tol float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("violation count %d, want %d", len(got), len(want))
	}
	wm := make(map[string]Violation, len(want))
	for _, v := range want {
		wm[v.Victim] = v
	}
	for _, g := range got {
		w, ok := wm[g.Victim]
		if !ok {
			t.Errorf("unexpected violation %+v", g)
			continue
		}
		if g.Victim == except {
			if d := g.PeakV - w.PeakV; d > tol || d < -tol {
				t.Errorf("%s: fallback peak %.4f vs clean %.4f (tol %g)", g.Victim, g.PeakV, w.PeakV, tol)
			}
			continue
		}
		if g != w {
			t.Errorf("%s differs:\n  got  %+v\n  want %+v", g.Victim, g, w)
		}
	}
}

// TestParallelMatchesSerial is the determinism acceptance check: a parallel
// degraded run must produce byte-identical Violations (and report text) to
// the serial strict Run on a healthy design.
func TestParallelMatchesSerial(t *testing.T) {
	cfg := Config{Model: FixedResistance, CapRatioThreshold: 0.03}
	serial, err := engineVerifier(t, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := engineVerifier(t, cfg).RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Violations) == 0 {
		t.Fatal("test design produced no violations; determinism check is vacuous")
	}
	a := fmt.Sprintf("%+v", serial.Violations)
	b := fmt.Sprintf("%+v", par.Violations)
	if a != b {
		t.Errorf("parallel violations differ from serial:\nserial: %s\nparallel: %s", a, b)
	}
	if par.AnalyzedVictims != serial.AnalyzedVictims {
		t.Errorf("analyzed victims: parallel %d vs serial %d", par.AnalyzedVictims, serial.AnalyzedVictims)
	}
	d := par.Diagnostics
	if d == nil {
		t.Fatal("parallel report has no diagnostics")
	}
	if d.Workers != 4 && d.Workers != par.AnalyzedVictims {
		t.Errorf("diagnostics workers = %d", d.Workers)
	}
	if d.Unverified != 0 || d.Degraded != 0 {
		t.Errorf("healthy run reported %d unverified, %d degraded", d.Unverified, d.Degraded)
	}
	if d.Verified != par.AnalyzedVictims {
		t.Errorf("verified %d != analyzed %d", d.Verified, par.AnalyzedVictims)
	}
}

// TestFaultInjectionDegradedVsStrict injects a panic on the fast path of one
// victim. Degraded mode must recover it via the fallback ladder and still
// report every victim; strict mode must fail with the panic error.
func TestFaultInjectionDegradedVsStrict(t *testing.T) {
	// Screening off: the target victim must reach the ladder rung the hook
	// fires on, whichever cluster the midpoint selection lands on.
	cfg := Config{Model: FixedResistance, CapRatioThreshold: 0.03, DisableScreening: true}
	clean, err := engineVerifier(t, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	target := clean.Diagnostics.Clusters[len(clean.Diagnostics.Clusters)/2].Victim

	hook := func(victim string, stage FallbackStage) error {
		if victim == target && stage == StageReduced {
			panic("injected numerical blow-up")
		}
		return nil
	}

	v := engineVerifier(t, Config{Model: FixedResistance, CapRatioThreshold: 0.03, Workers: 4, DisableScreening: true})
	v.faultHook = hook
	rep, err := v.RunContext(context.Background())
	if err != nil {
		t.Fatalf("degraded run aborted: %v", err)
	}
	if rep.AnalyzedVictims != clean.AnalyzedVictims {
		t.Errorf("degraded run covered %d victims, want %d", rep.AnalyzedVictims, clean.AnalyzedVictims)
	}
	// The recovered victim re-ran under Gmin regularization at half the
	// reduction order, so its peak carries extra truncation error; everyone
	// else must be exact.
	compareViolations(t, rep.Violations, clean.Violations, target, 0.12)
	var hit *ClusterOutcome
	for i := range rep.Diagnostics.Clusters {
		if rep.Diagnostics.Clusters[i].Victim == target {
			hit = &rep.Diagnostics.Clusters[i]
		}
	}
	if hit == nil {
		t.Fatalf("victim %s missing from diagnostics", target)
	}
	if hit.Stage != StageRegularized || hit.Attempts != 2 {
		t.Errorf("victim %s: stage %s after %d attempts, want recovery at %s",
			target, hit.Stage, hit.Attempts, StageRegularized)
	}
	if rep.Diagnostics.Degraded != 1 {
		t.Errorf("degraded count = %d, want 1", rep.Diagnostics.Degraded)
	}

	sv := engineVerifier(t, Config{Model: FixedResistance, CapRatioThreshold: 0.03, Strict: true, Workers: 4, DisableScreening: true})
	sv.faultHook = hook
	if _, err := sv.RunContext(context.Background()); !errors.Is(err, ErrPanic) {
		t.Errorf("strict run error = %v, want ErrPanic", err)
	}
	sv2 := engineVerifier(t, Config{Model: FixedResistance, CapRatioThreshold: 0.03, DisableScreening: true})
	sv2.faultHook = hook
	if _, err := sv2.Run(); !errors.Is(err, ErrPanic) {
		t.Errorf("Run error = %v, want ErrPanic", err)
	}
}

// TestFaultInjectionUnverified fails every rung for one victim and checks the
// structured ClusterError plus the report rendering.
func TestFaultInjectionUnverified(t *testing.T) {
	cfg := Config{Model: FixedResistance, CapRatioThreshold: 0.03, Workers: 4, DisableScreening: true}
	clean, err := engineVerifier(t, Config{Model: FixedResistance, CapRatioThreshold: 0.03, DisableScreening: true}).Run()
	if err != nil {
		t.Fatal(err)
	}
	target := clean.Diagnostics.Clusters[0].Victim

	v := engineVerifier(t, cfg)
	v.faultHook = func(victim string, stage FallbackStage) error {
		if victim != target {
			return nil
		}
		switch stage {
		case StageReduced:
			return fmt.Errorf("boom: %w", ErrReduction)
		case StageRegularized:
			panic("still broken")
		default:
			return fmt.Errorf("boom: %w", ErrNewtonDiverged)
		}
	}
	rep, err := v.RunContext(context.Background())
	if err != nil {
		t.Fatalf("degraded run aborted: %v", err)
	}
	d := rep.Diagnostics
	if d.Unverified != 1 {
		t.Fatalf("unverified = %d, want 1", d.Unverified)
	}
	worst := d.WorstUnverified(10)
	if len(worst) != 1 || worst[0].Victim != target {
		t.Fatalf("worst unverified = %+v", worst)
	}
	cerr := worst[0].Err
	if cerr.Victim != target || len(cerr.Attempts) != 3 {
		t.Fatalf("cluster error %+v", cerr)
	}
	for _, want := range []error{ErrReduction, ErrPanic, ErrNewtonDiverged} {
		if !errors.Is(cerr, want) {
			t.Errorf("ClusterError does not wrap %v", want)
		}
	}
	if cerr.Attempts[0].Stage != StageReduced || cerr.Attempts[1].Stage != StageRegularized ||
		cerr.Attempts[2].Stage != StageDirectMNA {
		t.Errorf("attempt stages: %+v", cerr.Attempts)
	}
	// The other victims must still be covered.
	if rep.AnalyzedVictims != clean.AnalyzedVictims {
		t.Errorf("covered %d victims, want %d", rep.AnalyzedVictims, clean.AnalyzedVictims)
	}
	var sb strings.Builder
	if err := rep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"worst unverified victims", target, "unverified: 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("report text missing %q:\n%s", want, out)
		}
	}
}

// TestDirectMNAFallbackRung forces the first two rungs to fail so the direct
// (unreduced) integrator must produce the result, and checks it agrees with
// the healthy reduced flow.
func TestDirectMNAFallbackRung(t *testing.T) {
	base := Config{Model: FixedResistance, CapRatioThreshold: 0.03, DisableScreening: true}
	clean, err := engineVerifier(t, base).Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg := base
	cfg.Workers = 2
	v := engineVerifier(t, cfg)
	target := clean.Diagnostics.Clusters[0].Victim
	v.faultHook = func(victim string, stage FallbackStage) error {
		if victim == target && stage != StageDirectMNA {
			return fmt.Errorf("forced: %w", ErrReduction)
		}
		return nil
	}
	rep, err := v.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	d := rep.Diagnostics
	if d.Unverified != 0 || d.Degraded != 1 {
		t.Fatalf("unverified %d degraded %d, want 0/1", d.Unverified, d.Degraded)
	}
	for _, c := range d.Clusters {
		if c.Victim == target && c.Stage != StageDirectMNA {
			t.Errorf("victim %s verified via %s, want direct-mna", target, c.Stage)
		}
	}
	// Direct integration of the unreduced system agrees with the reduced
	// model to model-truncation accuracy on the target; exact elsewhere.
	compareViolations(t, rep.Violations, clean.Violations, target, 0.05)
}

// TestClusterTimeout checks the per-cluster deadline: an expired deadline
// lands as ErrTimeout, short-circuits the ladder and never sinks the run.
func TestClusterTimeout(t *testing.T) {
	// Part 1: an unmeetable deadline (every cluster blows it) — the run
	// still completes, and every victim is unverified with ErrTimeout after
	// exactly one attempt. This exercises the real context.WithTimeout
	// plumbing without depending on machine speed.
	cfg := Config{Model: FixedResistance, CapRatioThreshold: 0.03,
		Workers: 4, ClusterTimeout: time.Nanosecond}
	v := engineVerifier(t, cfg)
	v.faultHook = func(victim string, stage FallbackStage) error {
		time.Sleep(time.Millisecond) // guarantee the 1 ns deadline has passed
		return nil
	}
	rep, err := v.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	d := rep.Diagnostics
	if d.Unverified == 0 || d.Unverified != len(d.Clusters) {
		t.Fatalf("unverified = %d of %d, want all", d.Unverified, len(d.Clusters))
	}
	for _, c := range d.Clusters {
		if !errors.Is(c.Err, ErrTimeout) {
			t.Fatalf("%s: %v does not wrap ErrTimeout", c.Victim, c.Err)
		}
		// The deadline must short-circuit the ladder, not retry every rung.
		if len(c.Err.Attempts) != 1 {
			t.Fatalf("%s: %d attempts after timeout, want 1", c.Victim, len(c.Err.Attempts))
		}
	}

	// Part 2: only one victim's analysis hits its deadline — the rest of
	// the chip is still verified exactly.
	clean, err := engineVerifier(t, Config{Model: FixedResistance, CapRatioThreshold: 0.03, DisableScreening: true}).Run()
	if err != nil {
		t.Fatal(err)
	}
	target := clean.Diagnostics.Clusters[0].Victim
	v2 := engineVerifier(t, Config{Model: FixedResistance, CapRatioThreshold: 0.03, Workers: 4, DisableScreening: true})
	v2.faultHook = func(victim string, stage FallbackStage) error {
		if victim == target {
			return context.DeadlineExceeded
		}
		return nil
	}
	rep2, err := v2.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Diagnostics.Unverified != 1 {
		t.Fatalf("unverified = %d, want 1", rep2.Diagnostics.Unverified)
	}
	cerr := rep2.Diagnostics.WorstUnverified(1)[0].Err
	if !errors.Is(cerr, ErrTimeout) || len(cerr.Attempts) != 1 {
		t.Errorf("cluster error %v (attempts %d), want ErrTimeout after 1 attempt", cerr, len(cerr.Attempts))
	}
	if rep2.AnalyzedVictims != clean.AnalyzedVictims {
		t.Errorf("covered %d victims, want %d", rep2.AnalyzedVictims, clean.AnalyzedVictims)
	}
}

// TestCancellationPromptAndLeakFree cancels mid-run and checks RunContext
// returns context.Canceled promptly without leaking worker goroutines.
func TestCancellationPromptAndLeakFree(t *testing.T) {
	before := runtime.NumGoroutine()
	v := engineVerifier(t, Config{Model: FixedResistance, CapRatioThreshold: 0.03, Workers: 4})
	ctx, cancel := context.WithCancel(context.Background())
	var analyzed atomic.Int32
	v.faultHook = func(victim string, stage FallbackStage) error {
		if analyzed.Add(1) == 3 {
			cancel()
		}
		return nil
	}
	start := time.Now()
	rep, err := v.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Error("cancelled run returned a report")
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Errorf("cancellation took %v", el)
	}
	// Workers must all have exited.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 64<<10)
		t.Errorf("goroutines leaked: %d -> %d\n%s", before, n, buf[:runtime.Stack(buf, true)])
	}
}

// TestWorkersRace hammers the pool from several goroutines; meaningful under
// go test -race.
func TestWorkersRace(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	v := engineVerifier(t, Config{Model: FixedResistance, CapRatioThreshold: 0.03, Workers: 4})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := v.RunContext(context.Background()); err != nil {
				t.Errorf("concurrent run: %v", err)
			}
		}()
	}
	wg.Wait()
}

// TestROMCacheParallelByteIdentical is the memoization acceptance check: with
// the ROM cache on (the default), a Workers=8 parallel run must render a
// byte-identical WriteText report to the serial strict Run — under cache
// contention, hit/miss interleaving and LRU eviction alike — and so must a
// cache-disabled run, proving the cache never changes a reported number.
func TestROMCacheParallelByteIdentical(t *testing.T) {
	render := func(cfg Config, parallel bool) string {
		t.Helper()
		v := engineVerifier(t, cfg)
		var (
			rep *Report
			err error
		)
		if parallel {
			rep, err = v.RunContext(context.Background())
		} else {
			rep, err = v.Run()
		}
		if err != nil {
			t.Fatal(err)
		}
		// Wall times differ run to run; reports are compared without the
		// diagnostics block, which TestParallelMatchesSerial covers separately.
		rep.Diagnostics = nil
		var sb strings.Builder
		if err := rep.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}

	base := Config{Model: FixedResistance, CapRatioThreshold: 0.03}
	serial := render(base, false)

	par := base
	par.Workers = 8
	if got := render(par, true); got != serial {
		t.Errorf("cached parallel report differs from serial:\n--- serial ---\n%s--- parallel ---\n%s", serial, got)
	}

	off := par
	off.reference.noROMCache = true
	if got := render(off, true); got != serial {
		t.Errorf("cache-disabled report differs from cached serial:\n--- serial ---\n%s--- disabled ---\n%s", serial, got)
	}

	// The comparison above is only meaningful if the cache actually engaged.
	// Same-cluster reuse (the second glitch polarity) is absorbed by the
	// engine's prepared-transient memo before it ever reaches the ROM cache,
	// so probe the cache's hit path with that layer disabled: the polarity
	// pairs then hit the cache exactly as the historical per-polarity loop.
	probe := par
	probe.reference.oneShot = true
	v := engineVerifier(t, probe)
	rep, err := v.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	d := rep.Diagnostics
	if d.ROMCacheMisses == 0 {
		t.Error("cached run recorded no misses; cache appears disconnected")
	}
	if d.ROMCacheHits == 0 {
		t.Error("cached run recorded no hits; fingerprinting appears ineffective")
	}

	vOff := engineVerifier(t, off)
	repOff, err := vOff.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if dOff := repOff.Diagnostics; dOff.ROMCacheHits != 0 || dOff.ROMCacheMisses != 0 {
		t.Errorf("disabled cache reported activity: %d hits, %d misses", dOff.ROMCacheHits, dOff.ROMCacheMisses)
	}
}

// TestZeroConfigDefaultsToNonlinear pins the setDefaults fix: a zero-valued
// Config must resolve to the nonlinear cell model, while an explicit
// FixedResistance request must survive even with FixedOhms defaulted.
func TestZeroConfigDefaultsToNonlinear(t *testing.T) {
	var c Config
	c.setDefaults()
	if c.Model != NonlinearCellModel {
		t.Errorf("zero config model = %v, want NonlinearCellModel", c.Model)
	}
	if c.FixedOhms != 1000 {
		t.Errorf("FixedOhms default = %v", c.FixedOhms)
	}
	c2 := Config{Model: FixedResistance}
	c2.setDefaults()
	if c2.Model != FixedResistance {
		t.Errorf("explicit FixedResistance was overridden to %v", c2.Model)
	}
}
