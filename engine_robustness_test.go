package xtverify

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xtverify/internal/romsim"
	"xtverify/internal/sympvl"
)

// TestClassifyClusterErrTable pins the sentinel mapping — in particular
// that a parent-context cancellation (client disconnect, daemon drain)
// classifies as ErrCanceled and is never conflated with ErrTimeout.
func TestClassifyClusterErrTable(t *testing.T) {
	cases := []struct {
		name string
		in   error
		is   []error
		not  []error
	}{
		{
			name: "parent cancellation",
			in:   fmt.Errorf("op: %w", context.Canceled),
			is:   []error{ErrCanceled},
			not:  []error{ErrTimeout, ErrReduction, ErrPanic},
		},
		{
			name: "bare cancellation",
			in:   context.Canceled,
			is:   []error{ErrCanceled},
			not:  []error{ErrTimeout},
		},
		{
			name: "deadline exceeded",
			in:   fmt.Errorf("op: %w", context.DeadlineExceeded),
			is:   []error{ErrTimeout},
			not:  []error{ErrCanceled, ErrReduction},
		},
		{
			name: "sympvl breakdown",
			in:   fmt.Errorf("reduce: %w", sympvl.ErrNotSPD),
			is:   []error{ErrReduction},
			not:  []error{ErrTimeout, ErrCanceled, ErrNewtonDiverged},
		},
		{
			name: "unstable model",
			in:   romsim.ErrUnstableModel,
			is:   []error{ErrReduction},
			not:  []error{ErrNewtonDiverged},
		},
		{
			name: "newton divergence",
			in:   fmt.Errorf("sim: %w", romsim.ErrNewtonDiverged),
			is:   []error{ErrNewtonDiverged},
			not:  []error{ErrReduction, ErrTimeout, ErrCanceled},
		},
		{
			name: "panic already classified",
			in:   fmt.Errorf("%w: index out of range", ErrPanic),
			is:   []error{ErrPanic},
			not:  []error{ErrTimeout, ErrCanceled},
		},
		{
			name: "unrecognized passes through",
			in:   errors.New("mystery"),
			is:   nil,
			not:  []error{ErrTimeout, ErrCanceled, ErrReduction, ErrNewtonDiverged, ErrPanic},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := classifyClusterErr(tc.in)
			for _, want := range tc.is {
				if !errors.Is(got, want) {
					t.Errorf("classify(%v) = %v, want errors.Is %v", tc.in, got, want)
				}
			}
			for _, not := range tc.not {
				if errors.Is(got, not) {
					t.Errorf("classify(%v) = %v, must NOT be %v", tc.in, got, not)
				}
			}
		})
	}
}

// TestRungRetryRecoversTransient injects a one-shot timeout into a single
// cluster's fast path: with RungRetries the same rung must be re-attempted
// after backoff and succeed, leaving the cluster verified on the fast rung
// (not degraded), with the retry visible in the rung_retries counter.
func TestRungRetryRecoversTransient(t *testing.T) {
	base := Config{Model: FixedResistance, CapRatioThreshold: 0.03}
	clean, err := engineVerifier(t, base).Run()
	if err != nil {
		t.Fatal(err)
	}
	target := clean.Diagnostics.Clusters[len(clean.Diagnostics.Clusters)/2].Victim

	cfg := base
	cfg.Workers = 4
	cfg.RungRetries = 2
	cfg.RungRetryBackoff = time.Millisecond
	cfg.Collector = NewMetricsCollector()
	v := engineVerifier(t, cfg)
	var failures atomic.Int64
	failures.Store(1)
	var attemptsSeen atomic.Int64
	v.faultHook = func(victim string, stage FallbackStage) error {
		if victim != target || stage != StageReduced {
			return nil
		}
		attemptsSeen.Add(1)
		if failures.Add(-1) >= 0 {
			return fmt.Errorf("injected overload: %w", context.DeadlineExceeded)
		}
		return nil
	}
	rep, err := v.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := attemptsSeen.Load(); got != 2 {
		t.Errorf("fast rung attempted %d times, want 2 (fail + retry)", got)
	}
	for _, c := range rep.Diagnostics.Clusters {
		if c.Victim == target {
			if c.Err != nil || c.Stage != StageReduced {
				t.Errorf("victim %s: stage %s err %v, want clean recovery on the fast rung", target, c.Stage, c.Err)
			}
		}
	}
	if rep.Diagnostics.Degraded != 0 || rep.Diagnostics.Unverified != 0 {
		t.Errorf("degraded %d unverified %d, want 0/0 (retry should absorb the transient)",
			rep.Diagnostics.Degraded, rep.Diagnostics.Unverified)
	}
	if got := rep.Diagnostics.Metrics.Counters["rung_retries"]; got != 1 {
		t.Errorf("rung_retries = %d, want 1", got)
	}
	compareViolations(t, rep.Violations, clean.Violations, "", 0)
}

// TestCanceledAttemptNotRetried: an attempt that fails because the parent
// was canceled must classify as ErrCanceled and must not consume retry
// budget — a disconnected client's job is abandoned, not hammered.
func TestCanceledAttemptNotRetried(t *testing.T) {
	cfg := Config{Model: FixedResistance, CapRatioThreshold: 0.03,
		RungRetries: 3, RungRetryBackoff: time.Millisecond,
		DisableScreening: true} // every cluster must reach the ladder
	cfg.Collector = NewMetricsCollector()
	v := engineVerifier(t, cfg)
	var calls atomic.Int64
	v.faultHook = func(victim string, stage FallbackStage) error {
		calls.Add(1)
		return fmt.Errorf("client went away: %w", context.Canceled)
	}
	rep, err := v.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Every cluster fails all three rungs with a cancellation; none may be
	// retried (3 rungs × clusters, no extra calls).
	clusters := len(rep.Diagnostics.Clusters)
	if clusters == 0 {
		t.Fatal("no clusters analyzed")
	}
	if got := calls.Load(); got != int64(3*clusters) {
		t.Errorf("attempt calls = %d, want %d (3 rungs × %d clusters, zero retries)", got, 3*clusters, clusters)
	}
	if got := rep.Diagnostics.Metrics.Counters["rung_retries"]; got != 0 {
		t.Errorf("rung_retries = %d, want 0 for canceled attempts", got)
	}
	for _, c := range rep.Diagnostics.Clusters {
		if c.Err == nil {
			t.Fatalf("victim %s verified despite injected cancellation", c.Victim)
		}
		if !errors.Is(c.Err, ErrCanceled) {
			t.Errorf("victim %s: %v, want ErrCanceled", c.Victim, c.Err)
		}
		if errors.Is(c.Err, ErrTimeout) {
			t.Errorf("victim %s reported as ErrTimeout — cancellation conflated with deadline", c.Victim)
		}
	}
}

// renderReportStore is renderReport with a persistent store attached.
func renderReportStore(t *testing.T, cfg Config, store *ROMStore) string {
	t.Helper()
	cfg.ROMStore = store
	return renderReport(t, cfg, true)
}

// TestPersistentStoreWarmColdIdentity is the durability acceptance check:
// a warm run against a populated disk store must render a byte-identical
// report to the cold run that populated it, and a corrupted store must
// degrade to recompute — counted, byte-identical, never fatal. The
// nonlinear model restores prepared cores with device ports, whose steps
// run the Woodbury solve; fixed-R cores have none.
func TestPersistentStoreWarmColdIdentity(t *testing.T) {
	for _, m := range []struct {
		name  string
		model DriverModel
	}{{"fixed", FixedResistance}, {"nonlinear", NonlinearCellModel}} {
		t.Run(m.name, func(t *testing.T) {
			testPersistentStoreWarmColdIdentity(t, Config{Model: m.model, CapRatioThreshold: 0.03, Workers: 4})
		})
	}
}

func testPersistentStoreWarmColdIdentity(t *testing.T, cfg Config) {
	dir := t.TempDir()
	store, err := OpenROMStore(dir)
	if err != nil {
		t.Fatal(err)
	}

	cold := renderReportStore(t, cfg, store)
	st := store.Stats()
	if st.Writes == 0 {
		t.Fatalf("cold run wrote no entries: %+v", st)
	}

	warmCfg := cfg
	warmCfg.Collector = NewMetricsCollector()
	warm := renderReportStore(t, warmCfg, store)
	if warm != cold {
		t.Errorf("warm persistent-cache report differs from cold:\n--- cold ---\n%s--- warm ---\n%s", cold, warm)
	}
	st2 := store.Stats()
	if st2.Hits == 0 {
		t.Errorf("warm run hit nothing: %+v", st2)
	}
	if got := warmCfg.Collector.Snapshot().Counters["prepared_store_hits"]; got == 0 {
		t.Errorf("warm run restored no prepared core from the store")
	}

	// Flip one byte in every entry: the store must discard every entry,
	// recompute, and still render the identical report.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	for _, e := range ents {
		path := filepath.Join(dir, e.Name())
		raw, err := os.ReadFile(path)
		if err != nil || len(raw) == 0 {
			t.Fatalf("read %s: %v", path, err)
		}
		raw[len(raw)/3] ^= 0x10
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted++
	}
	if corrupted == 0 {
		t.Fatal("no entries to corrupt")
	}
	cfg.Collector = NewMetricsCollector()
	cfg.ROMStore = store
	v := engineVerifier(t, cfg)
	rep, err := v.RunContext(context.Background())
	if err != nil {
		t.Fatalf("run against corrupted store failed: %v", err)
	}
	if got := rep.Diagnostics.Metrics.Counters["cache_corrupt_discarded"]; got == 0 {
		t.Errorf("cache_corrupt_discarded = 0 after corrupting %d entries (store stats %+v)", corrupted, store.Stats())
	}
	rep.Diagnostics = nil
	gotText := reportText(t, rep)
	if gotText != cold {
		t.Errorf("report after corruption differs from cold run:\n--- cold ---\n%s--- corrupted ---\n%s", cold, gotText)
	}
	if store.Stats().CorruptDiscarded == 0 {
		t.Error("store reported no corrupt discards")
	}
}

// reportText renders a report's WriteText output.
func reportText(t *testing.T, rep *Report) string {
	t.Helper()
	var sb strings.Builder
	if err := rep.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestSharedROMCacheAcrossRuns: a second run against one SharedROMCache
// must be served from memory (hits delta > 0, misses delta 0) and stay
// byte-identical.
func TestSharedROMCacheAcrossRuns(t *testing.T) {
	cache := NewROMCache(DefaultROMCacheCap)
	cfg := Config{Model: FixedResistance, CapRatioThreshold: 0.03, SharedROMCache: cache}
	first := renderReport(t, cfg, true)

	cfg2 := cfg
	cfg2.Collector = NewMetricsCollector()
	v := engineVerifier(t, cfg2)
	rep, err := v.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	d := rep.Diagnostics
	if d.ROMCacheMisses != 0 || d.ROMCacheHits == 0 {
		t.Errorf("second shared-cache run: hits %d misses %d, want all-hit", d.ROMCacheHits, d.ROMCacheMisses)
	}
	rep.Diagnostics = nil
	if got := reportText(t, rep); got != first {
		t.Errorf("shared-cache warm report differs:\n--- first ---\n%s--- second ---\n%s", first, got)
	}
}

// TestROMCacheCapConfigurable: a capacity-1 cache must evict (hits stay
// rare) yet still render the identical report — capacity is a performance
// knob, never a correctness one.
func TestROMCacheCapConfigurable(t *testing.T) {
	base := Config{Model: FixedResistance, CapRatioThreshold: 0.03}
	want := renderReport(t, base, false)
	tiny := base
	tiny.ROMCacheCap = 1
	tiny.Collector = NewMetricsCollector()
	v := engineVerifier(t, tiny)
	rep, err := v.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Diagnostics.Metrics.Counters["rom_cache_evictions"]; got == 0 {
		t.Errorf("capacity-1 cache reported no evictions (counters %v)", rep.Diagnostics.Metrics.Counters)
	}
	rep.Diagnostics = nil
	if got := reportText(t, rep); got != want {
		t.Errorf("capacity-1 report differs from default:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}
