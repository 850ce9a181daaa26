package xtverify

import (
	"context"
	"strings"
	"testing"
)

// renderReport runs cfg on the small test design and returns the WriteText
// report without the diagnostics block (wall times differ run to run).
func renderReport(t *testing.T, cfg Config, parallel bool) string {
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
	rep.Diagnostics = nil
	var sb strings.Builder
	if err := rep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestPreparedByteIdenticalToSeedPath is the prepared-transient acceptance
// check: the amortized Prepare/RunBatch path must render a byte-identical
// WriteText report to the historical Simulate-per-scenario path, serially
// and under Workers=8 contention, with the ROM cache on and off.
func TestPreparedByteIdenticalToSeedPath(t *testing.T) {
	for _, model := range []DriverModel{FixedResistance, NonlinearCellModel} {
		base := Config{Model: model, CapRatioThreshold: 0.03}

		seed := base
		seed.reference.oneShot = true
		want := renderReport(t, seed, false)

		for _, tc := range []struct {
			name     string
			parallel bool
			cacheOff bool
		}{
			{"serial", false, false},
			{"workers8", true, false},
			{"serial-nocache", false, true},
			{"workers8-nocache", true, true},
		} {
			cfg := base
			cfg.reference.noROMCache = tc.cacheOff
			if tc.parallel {
				cfg.Workers = 8
			}
			if got := renderReport(t, cfg, tc.parallel); got != want {
				t.Errorf("model %v, %s: prepared report differs from seed path:\n--- seed ---\n%s--- prepared ---\n%s",
					model, tc.name, want, got)
			}
		}

		// The seed path must agree with itself in parallel too, so a
		// divergence above implicates the prepared layer, not scheduling.
		seedPar := seed
		seedPar.Workers = 8
		if got := renderReport(t, seedPar, true); got != want {
			t.Errorf("model %v: seed path itself diverges under Workers=8", model)
		}
	}
}

// TestPreparedMetricsCounters checks the amortization actually happened: a
// prepared-path run must report skipped diagonalizations and batched
// scenarios, and the seed path must report none.
func TestPreparedMetricsCounters(t *testing.T) {
	cfg := Config{Model: FixedResistance, CapRatioThreshold: 0.03, Workers: 2}
	_, s := runWithCollector(t, cfg)
	// prepared_reuses stays 0 here by design: the verify flow batches both
	// glitch polarities through a single Prepare, so no memo lookup repeats.
	// Reuse across separate analyses is asserted in the glitch package.
	for _, ctr := range []string{"diagonalize_skipped", "scenarios_batched"} {
		if s.Counters[ctr] <= 0 {
			t.Errorf("counter %s = %d, want > 0 (all: %v)", ctr, s.Counters[ctr], s.Counters)
		}
	}

	off := cfg
	off.reference.oneShot = true
	_, sOff := runWithCollector(t, off)
	for _, ctr := range []string{"diagonalize_skipped", "scenarios_batched", "prepared_reuses"} {
		if sOff.Counters[ctr] != 0 {
			t.Errorf("seed path reported %s = %d, want 0", ctr, sOff.Counters[ctr])
		}
	}
}

// TestRefineTimingWindows exercises the crosstalk-aware STA re-alignment
// pass end to end: with annotated windows, the coupling delay changes must
// widen at least one window, and a subsequent run must still succeed.
func TestRefineTimingWindows(t *testing.T) {
	cfg := Config{Model: FixedResistance, CapRatioThreshold: 0.03, UseTimingWindows: true}
	v := engineVerifier(t, cfg)
	n, err := v.RefineTimingWindows(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Errorf("refined %d windows, want > 0", n)
	}
	if _, err := v.RunContext(context.Background()); err != nil {
		t.Fatalf("run after refinement: %v", err)
	}
}
