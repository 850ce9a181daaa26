package xtverify

import (
	"context"
	"strings"
	"testing"

	"xtverify/internal/faultinject"
)

// stripScreeningLines removes the report's screening section (the
// "screening:" summary line and the "  screened " cluster lines) — the only
// lines a screening-on report is allowed to differ by.
func stripScreeningLines(report string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(report, "\n") {
		if strings.HasPrefix(line, "screening:") || strings.HasPrefix(line, "  screened ") {
			continue
		}
		b.WriteString(line)
	}
	return b.String()
}

// TestScreeningReportIdentity is the tentpole's A/B acceptance check: a
// -no-screen run renders byte-identical reports to the historical flow (it
// IS the historical flow), and a screening-on run differs only by the
// documented screening section — serially, under Workers=8, and with the
// ROM cache off, for both driver models. Screened clusters are conservative
// passes, so violations, verified counts, and every other report line must
// not move.
func TestScreeningReportIdentity(t *testing.T) {
	for _, model := range []DriverModel{FixedResistance, NonlinearCellModel} {
		base := Config{Model: model, CapRatioThreshold: 0.03}

		off := base
		off.DisableScreening = true
		want := renderReport(t, off, false)
		if strings.Contains(want, "screening:") {
			t.Fatalf("model %v: -no-screen report still has a screening section:\n%s", model, want)
		}

		on := renderReport(t, base, false)
		if !strings.Contains(on, "screening:") {
			t.Fatalf("model %v: screening-on report has no screening section:\n%s", model, on)
		}
		if got := stripScreeningLines(on); got != want {
			t.Errorf("model %v: screening-on report differs beyond the screening section:\n--- off ---\n%s--- on (stripped) ---\n%s",
				model, want, got)
		}

		for _, tc := range []struct {
			name     string
			parallel bool
			cacheOff bool
		}{
			{"workers8", true, false},
			{"serial-nocache", false, true},
			{"workers8-nocache", true, true},
		} {
			cfg := base
			cfg.reference.noROMCache = tc.cacheOff
			if tc.parallel {
				cfg.Workers = 8
			}
			if got := renderReport(t, cfg, tc.parallel); got != on {
				t.Errorf("model %v, %s: screening-on report not deterministic:\n--- serial ---\n%s--- %s ---\n%s",
					model, tc.name, on, tc.name, got)
			}
		}
	}
}

// TestScreeningROMCacheBypass pins the perf contract that makes rung 0
// worth having: a screened cluster never consults or populates the ROM
// cache, so cache traffic (hits + misses) accounts for exactly the
// unscreened clusters, and rom_cache_misses excludes screened clusters by
// construction.
func TestScreeningROMCacheBypass(t *testing.T) {
	cfg := Config{Model: FixedResistance, CapRatioThreshold: 0.03}
	rep, s := runWithCollector(t, cfg)
	if rep.Screening == nil || rep.Screening.Screened == 0 {
		t.Fatalf("design screens nothing — the bypass assertion is vacuous (screening: %+v)", rep.Screening)
	}
	analyzed := int64(rep.AnalyzedVictims)
	screened := int64(rep.Screening.Screened)
	traffic := s.Counters["rom_cache_hits"] + s.Counters["rom_cache_misses"]
	if traffic != analyzed-screened {
		t.Errorf("ROM cache traffic %d (hits %d + misses %d), want %d (= %d analyzed - %d screened)",
			traffic, s.Counters["rom_cache_hits"], s.Counters["rom_cache_misses"],
			analyzed-screened, analyzed, screened)
	}
	if got := s.Counters["screened_rung0"]; got != screened {
		t.Errorf("screened_rung0 counter %d disagrees with report %d", got, screened)
	}
}

// TestScreeningWarmStoreIdentity is satellite coverage for the persistent
// store: with screening on, a warm run against a store populated by a cold
// screening-on run stays byte-identical, and the store sees no entries for
// screened clusters (its write count matches the unscreened population).
func TestScreeningWarmStoreIdentity(t *testing.T) {
	store, err := OpenROMStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Model: FixedResistance, CapRatioThreshold: 0.03, Workers: 4}

	coldV := engineVerifier(t, cfg)
	coldV.cfg.ROMStore = store
	coldRep, err := coldV.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if coldRep.Screening == nil || coldRep.Screening.Screened == 0 {
		t.Fatalf("cold run screened nothing; store assertion is vacuous")
	}
	st := store.Stats()
	// Each unscreened cluster persists two entries: the reduced model (.rom)
	// and its prepared-transient core (.prep). Screened clusters write neither.
	wantWrites := 2 * uint64(coldRep.AnalyzedVictims-coldRep.Screening.Screened)
	if st.Writes != wantWrites {
		t.Errorf("cold store writes %d, want %d (= 2 x (%d analyzed - %d screened)): screened clusters must not populate the store",
			st.Writes, wantWrites, coldRep.AnalyzedVictims, coldRep.Screening.Screened)
	}

	coldRep.Diagnostics = nil
	var sb strings.Builder
	if err := coldRep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	warm := renderReportStore(t, cfg, store)
	if cold := sb.String(); warm != cold {
		t.Errorf("warm screening-on report differs from cold:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
	if st2 := store.Stats(); st2.Hits == st.Hits {
		t.Errorf("warm run hit nothing: %+v", st2)
	}
}

// TestScreeningPanicIsolation drives the injected-fault path through rung
// 0: a panic inside the screen must degrade that cluster to the full
// ladder — same verified totals, zero screened — never take down the run.
func TestScreeningPanicIsolation(t *testing.T) {
	defer faultinject.SetClusterHook(func(victim, stage string) error {
		if stage == StageScreened.String() {
			panic("faultinject: injected panic in rung-0 screen")
		}
		return nil
	})()
	cfg := Config{Model: FixedResistance, CapRatioThreshold: 0.03}
	v := engineVerifier(t, cfg)
	rep, err := v.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Screening == nil {
		t.Fatal("screening summary missing with screening enabled")
	}
	if rep.Screening.Screened != 0 {
		t.Errorf("screened %d clusters with the screen panicking, want 0", rep.Screening.Screened)
	}
	if rep.Diagnostics.Unverified != 0 {
		t.Errorf("%d unverified clusters — screen panic leaked out of rung 0", rep.Diagnostics.Unverified)
	}

	// The damaged run must match the -no-screen flow exactly (modulo the
	// now-empty screening line): every cluster fell through to the ladder.
	rep.Diagnostics = nil
	var sb strings.Builder
	if err := rep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	off := cfg
	off.DisableScreening = true
	if got, want := stripScreeningLines(sb.String()), renderReport(t, off, false); got != want {
		t.Errorf("screen-panic run differs from -no-screen run:\n--- no-screen ---\n%s--- panic (stripped) ---\n%s", want, got)
	}
}

// TestScreenSafetyFactor pins the safety-factor semantics: an enormous
// factor denies every clearance (and counts the would-have-cleared
// clusters as near-threshold), while a zero factor screens at least as
// many clusters as the default.
func TestScreenSafetyFactor(t *testing.T) {
	base := Config{Model: FixedResistance, CapRatioThreshold: 0.03}
	rep, _ := runWithCollector(t, base)
	if rep.Screening == nil || rep.Screening.Screened == 0 {
		t.Fatalf("default config screens nothing on the test design")
	}
	if rep.Screening.SafetyFactor != DefaultScreenSafetyFactor {
		t.Errorf("report safety factor %g, want default %g", rep.Screening.SafetyFactor, DefaultScreenSafetyFactor)
	}

	huge := base
	huge.ScreenSafetyFactor = 1e6
	hugeRep, s := runWithCollector(t, huge)
	if hugeRep.Screening.Screened != 0 {
		t.Errorf("screened %d clusters at safety factor 1e6, want 0", hugeRep.Screening.Screened)
	}
	if s.Counters["screen_near_threshold"] < int64(rep.Screening.Screened) {
		t.Errorf("near-threshold count %d < %d clusters the default factor clears",
			s.Counters["screen_near_threshold"], rep.Screening.Screened)
	}

	// A negative factor must never deflate the bound below its conservative
	// construction: it folds into the default, screening the same clusters.
	neg := base
	neg.ScreenSafetyFactor = -1
	negRep, _ := runWithCollector(t, neg)
	if negRep.Screening.Screened != rep.Screening.Screened {
		t.Errorf("negative safety factor screened %d clusters, default screened %d — negatives must clamp to the default",
			negRep.Screening.Screened, rep.Screening.Screened)
	}
}
