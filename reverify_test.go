package xtverify

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"xtverify/internal/cells"
	"xtverify/internal/deflite"
	"xtverify/internal/faultinject"
)

// identityText renders the report's identity surface — WriteText without the
// diagnostics block — while leaving the report itself intact (BaseRun needs
// the diagnostics).
func identityText(t testing.TB, rep *Report) string {
	t.Helper()
	diag := rep.Diagnostics
	rep.Diagnostics = nil
	var sb strings.Builder
	err := rep.WriteText(&sb)
	rep.Diagnostics = diag
	if err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// upsizeInDEF returns defText with the victim's first driver swapped to the
// next-stronger cell of the same kind — the engine-level mirror of the
// daemon's upsize-driver repair delta.
func upsizeInDEF(defText, victim string) (string, error) {
	d, err := deflite.Read(strings.NewReader(defText))
	if err != nil {
		return "", err
	}
	net, ok := d.NetByName(victim)
	if !ok || len(net.Drivers) == 0 {
		return "", fmt.Errorf("victim %q missing or driverless in DEF", victim)
	}
	drv := net.Drivers[0]
	var repl *cells.Cell
	for _, cand := range cells.Library() {
		if cand.Kind != drv.Cell.Kind || cand.Strength <= drv.Cell.Strength {
			continue
		}
		if repl == nil || cand.Strength < repl.Strength {
			repl = cand
		}
	}
	if repl == nil {
		return "", fmt.Errorf("no cell stronger than %s in the library", drv.Cell.Name)
	}
	for _, n := range d.Nets {
		for i := range n.Drivers {
			if n.Drivers[i].Inst == drv.Inst {
				n.Drivers[i].Cell = repl
			}
		}
		for i := range n.Receivers {
			if n.Receivers[i].Inst == drv.Inst {
				n.Receivers[i].Cell = repl
			}
		}
	}
	var out strings.Builder
	if err := deflite.Write(&out, d); err != nil {
		return "", err
	}
	return out.String(), nil
}

// upsizedDEF is upsizeInDEF over v's serialized design, fatal on error.
func upsizedDEF(t testing.TB, v *Verifier, victim string) string {
	t.Helper()
	var sb strings.Builder
	if err := v.WriteDEF(&sb); err != nil {
		t.Fatal(err)
	}
	out, err := upsizeInDEF(sb.String(), victim)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// spliceFixture runs a base verification on the small DSP design under cfg,
// upsizes the driver of the first violated victim, and returns everything an
// identity check needs: the base verifier+report, the edited DEF, and the
// chosen victim.
//
// The base verifier is built from a DEF round trip of the generated design,
// mirroring the daemon: a reverify delta is necessarily expressed in DEF, and
// DSP-direct construction differs from DEF parsing in low-order parasitic
// bits, which would defeat every cluster signature. DEF-to-DEF parses are
// exactly stable.
func spliceFixture(t *testing.T, cfg Config) (*Verifier, *Report, string, string) {
	t.Helper()
	gen := engineVerifier(t, cfg)
	var sb strings.Builder
	if err := gen.WriteDEF(&sb); err != nil {
		t.Fatal(err)
	}
	baseV, err := NewVerifierFromDEF(strings.NewReader(sb.String()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseRep, err := baseV.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(baseRep.Violations) == 0 {
		t.Fatal("base design has no violations; nothing to repair")
	}
	victim := baseRep.Violations[0].Victim
	return baseV, baseRep, upsizedDEF(t, baseV, victim), victim
}

// TestReverifyIdentity is the tentpole acceptance gate: a reverify splice of
// a single-driver upsize must render byte-identical to a cold full run of the
// edited design — serially, under Workers=8, with the ROM cache off, and
// against a warm persistent store.
func TestReverifyIdentity(t *testing.T) {
	for _, tc := range []struct {
		name      string
		mut       func(*Config)
		warmStore bool
	}{
		{"serial", func(*Config) {}, false},
		{"workers8", func(c *Config) { c.Workers = 8 }, false},
		{"cache-off", func(c *Config) { c.reference.noROMCache = true }, false},
		{"warm-store", func(*Config) {}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Model: FixedResistance, CapRatioThreshold: 0.03}
			tc.mut(&cfg)
			if tc.warmStore {
				store, err := OpenROMStore(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				cfg.ROMStore = store
			}
			baseV, baseRep, defText, _ := spliceFixture(t, cfg)

			coldV, err := NewVerifierFromDEF(strings.NewReader(defText), cfg)
			if err != nil {
				t.Fatal(err)
			}
			coldRep, err := coldV.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want := identityText(t, coldRep)

			base, err := baseV.BaseRun(baseRep)
			if err != nil {
				t.Fatal(err)
			}
			editV, err := NewVerifierFromDEF(strings.NewReader(defText), cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep, stats, err := editV.Reverify(base)
			if err != nil {
				t.Fatal(err)
			}
			if got := identityText(t, rep); got != want {
				t.Errorf("spliced report differs from cold run:\n--- cold ---\n%s--- spliced ---\n%s", want, got)
			}
			if stats.ClustersReused == 0 {
				t.Errorf("single-driver upsize reused nothing: %+v", stats)
			}
			if stats.ClustersRecomputed == 0 {
				t.Errorf("an edit that changes a driver must recompute something: %+v", stats)
			}
			if stats.ClustersReused+stats.ClustersRecomputed != base.Entries() {
				t.Errorf("reused %d + recomputed %d != %d base clusters (same-size edit)",
					stats.ClustersReused, stats.ClustersRecomputed, base.Entries())
			}
			if len(stats.StaleVictims) == 0 {
				t.Errorf("recomputed clusters must be marked stale on the base: %+v", stats)
			}

			// The spliced report carries its own index: the splicing verifier
			// gets it back without signing, and it equals what a verifier of
			// the same design that does not own the report signs afresh.
			idx, err := editV.BaseRun(rep)
			if err != nil {
				t.Fatal(err)
			}
			otherV, err := NewVerifierFromDEF(strings.NewReader(defText), cfg)
			if err != nil {
				t.Fatal(err)
			}
			signed, err := otherV.BaseRun(rep)
			if err != nil {
				t.Fatal(err)
			}
			sameIndex(t, idx, signed)
			var again *BaseRun
			allocs := testing.AllocsPerRun(10, func() { again, err = editV.BaseRun(rep) })
			if allocs != 0 {
				t.Errorf("BaseRun of a spliced report allocated %.0f times; want 0 (no pruning or signing)", allocs)
			}
			if err != nil || again != idx {
				t.Errorf("repeat BaseRun = %p, %v; want the spliced index %p", again, err, idx)
			}

			// Chain a second edit on the spliced index: upsize the base's
			// second violation on the edited design.
			if len(baseRep.Violations) < 2 {
				t.Fatalf("base has %d violations, want 2 to chain", len(baseRep.Violations))
			}
			def2 := upsizedDEF(t, editV, baseRep.Violations[1].Victim)
			cold2V, err := NewVerifierFromDEF(strings.NewReader(def2), cfg)
			if err != nil {
				t.Fatal(err)
			}
			cold2, err := cold2V.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			chainV, err := NewVerifierFromDEF(strings.NewReader(def2), cfg)
			if err != nil {
				t.Fatal(err)
			}
			rep2, stats2, err := chainV.Reverify(idx)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := identityText(t, rep2), identityText(t, cold2); got != want {
				t.Errorf("chained splice differs from cold run:\n--- cold ---\n%s--- spliced ---\n%s", want, got)
			}
			if stats2.ClustersReused == 0 {
				t.Errorf("chained upsize reused nothing: %+v", stats2)
			}
		})
	}
}

// sameIndex fails unless two reverify indexes hold the same victims, each
// with the same signature bytes, outcome and violation.
func sameIndex(t *testing.T, got, want *BaseRun) {
	t.Helper()
	if got.Entries() != want.Entries() {
		t.Fatalf("index has %d entries, want %d", got.Entries(), want.Entries())
	}
	//xtlint:sorted visit order immaterial: each victim is compared independently
	for victim, w := range want.entries {
		g := got.entries[victim]
		switch {
		case g == nil:
			t.Errorf("%s: missing from the index", victim)
		case g.sig != w.sig:
			t.Errorf("%s: signature differs (%d vs %d bytes)", victim, len(g.sig), len(w.sig))
		case !reflect.DeepEqual(g.outcome, w.outcome):
			t.Errorf("%s: outcome %+v, want %+v", victim, g.outcome, w.outcome)
		case (g.violation == nil) != (w.violation == nil) ||
			g.violation != nil && *g.violation != *w.violation:
			t.Errorf("%s: violation %+v, want %+v", victim, g.violation, w.violation)
		}
	}
}

// streamedVerifier returns a streamed verifier over defText and a rewind of
// the reader it consumes, which the caller runs before each run after the
// first.
func streamedVerifier(t *testing.T, defText string, cfg Config) (*Verifier, func()) {
	t.Helper()
	r := strings.NewReader(defText)
	cfg.StreamIngest = true
	v, err := NewVerifierFromDEF(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return v, func() { r.Reset(defText) }
}

// TestBaseRunStreamedIdentity holds a streamed verifier's BaseRun to the
// materialized one's: signed from component views, the index must equal the
// whole-chip signing entry by entry — signature bytes, outcome and
// violation.
func TestBaseRunStreamedIdentity(t *testing.T) {
	cfg := Config{Model: FixedResistance, CapRatioThreshold: 0.03}
	def := emDEF(t)
	sv, rewind := streamedVerifier(t, def, cfg)
	rep, err := sv.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rewind()
	got, err := sv.BaseRun(rep)
	if err != nil {
		t.Fatal(err)
	}
	mv, err := NewVerifierFromDEF(strings.NewReader(def), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mv.BaseRun(rep)
	if err != nil {
		t.Fatal(err)
	}
	if want.Entries() < 10 {
		t.Fatalf("only %d indexed clusters; the identity check needs a real population", want.Entries())
	}
	sameIndex(t, got, want)
}

// TestReverifyStreamedIdentity holds a streamed splice to the identity
// contract: a streamed ReverifyContext of an upsize edit, against a streamed
// base and against a materialized base, renders byte-identical to a cold
// materialized run of the edited DEF, reuses clusters, and carries the index
// a materialized signing of its report gives.
func TestReverifyStreamedIdentity(t *testing.T) {
	cfg := Config{Model: FixedResistance, CapRatioThreshold: 0.03}
	matBaseV, matBaseRep, editDEF, _ := spliceFixture(t, cfg)
	var sb strings.Builder
	if err := matBaseV.WriteDEF(&sb); err != nil {
		t.Fatal(err)
	}
	baseDEF := sb.String()
	coldV, err := NewVerifierFromDEF(strings.NewReader(editDEF), cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldRep, err := coldV.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := identityText(t, coldRep)

	strBaseV, rewind := streamedVerifier(t, baseDEF, cfg)
	strBaseRep, err := strBaseV.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rewind()
	strBase, err := strBaseV.BaseRun(strBaseRep)
	if err != nil {
		t.Fatal(err)
	}
	matBase, err := matBaseV.BaseRun(matBaseRep)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		base *BaseRun
	}{{"streamed-base", strBase}, {"materialized-base", matBase}} {
		editV, _ := streamedVerifier(t, editDEF, cfg)
		rep, stats, err := editV.ReverifyContext(context.Background(), tc.base)
		if err != nil {
			t.Fatal(err)
		}
		if got := identityText(t, rep); got != want {
			t.Errorf("%s: streamed splice differs from cold run:\n--- cold ---\n%s--- spliced ---\n%s", tc.name, want, got)
		}
		if stats.ClustersReused == 0 || stats.ClustersRecomputed == 0 {
			t.Errorf("%s: an upsize must reuse and recompute clusters: %+v", tc.name, stats)
		}
		idx, err := editV.BaseRun(rep)
		if err != nil {
			t.Fatal(err)
		}
		signed, err := coldV.BaseRun(rep)
		if err != nil {
			t.Fatal(err)
		}
		sameIndex(t, idx, signed)
	}
}

// TestReverifyStoreFaultsDegradeToRecompute injects persistent-store failures
// during the splice: every recomputed cluster loses its warm entries, must
// fall back to fresh reduction, and the spliced report stays byte-identical.
func TestReverifyStoreFaultsDegradeToRecompute(t *testing.T) {
	faultinject.LeakCheck(t)
	cfg := Config{Model: FixedResistance, CapRatioThreshold: 0.03}
	store, err := OpenROMStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.ROMStore = store
	baseV, baseRep, defText, _ := spliceFixture(t, cfg)

	// The cold reference runs fault-free (and warm).
	coldV, err := NewVerifierFromDEF(strings.NewReader(defText), cfg)
	if err != nil {
		t.Fatal(err)
	}
	coldRep, err := coldV.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := identityText(t, coldRep)

	base, err := baseV.BaseRun(baseRep)
	if err != nil {
		t.Fatal(err)
	}
	editV, err := NewVerifierFromDEF(strings.NewReader(defText), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer faultinject.SetStoreHook(func(op, path string) error {
		return fmt.Errorf("faultinject: %s unavailable", op)
	})()
	rep, stats, err := editV.Reverify(base)
	if err != nil {
		t.Fatal(err)
	}
	if got := identityText(t, rep); got != want {
		t.Errorf("splice under store faults differs from cold run:\n--- cold ---\n%s--- faulted ---\n%s", want, got)
	}
	if stats.ClustersRecomputed == 0 {
		t.Fatalf("fixture recomputed nothing; fault path unexercised: %+v", stats)
	}
	st := store.Stats()
	if st.LoadErrors == 0 && st.WriteErrors == 0 {
		t.Errorf("store faults never fired: %+v", st)
	}
}

// TestCanonicalConfigKey pins the cache-key contract: every field that can
// change report content yields a distinct key; execution knobs do not.
func TestCanonicalConfigKey(t *testing.T) {
	base := Config{Model: FixedResistance, CapRatioThreshold: 0.03}
	baseKey := base.CanonicalConfigKey()

	if zero, dflt := (Config{}).CanonicalConfigKey(), (Config{Model: NonlinearCellModel}).CanonicalConfigKey(); zero != dflt {
		t.Errorf("zero config and explicit defaults must share a key:\n  %s\n  %s", zero, dflt)
	}

	content := map[string]func(*Config){
		"Model":               func(c *Config) { c.Model = NonlinearCellModel },
		"FixedOhms":           func(c *Config) { c.FixedOhms = 700 },
		"CapRatioThreshold":   func(c *Config) { c.CapRatioThreshold = 0.05 },
		"UseTimingWindows":    func(c *Config) { c.UseTimingWindows = true },
		"UseLogicCorrelation": func(c *Config) { c.UseLogicCorrelation = true },
		"GlitchThresholdFrac": func(c *Config) { c.GlitchThresholdFrac = 0.2 },
		"TransistorRecheck":   func(c *Config) { c.TransistorRecheck = true },
		"Strict":              func(c *Config) { c.Strict = true },
		"ClusterTimeout":      func(c *Config) { c.ClusterTimeout = 3 * time.Second },
		"RungRetries":         func(c *Config) { c.RungRetries = 2 },
		"RungRetryBackoff":    func(c *Config) { c.RungRetryBackoff = 10 * time.Millisecond },
		"DisableScreening":    func(c *Config) { c.DisableScreening = true },
		"ScreenSafetyFactor":  func(c *Config) { c.ScreenSafetyFactor = 2.5 },
	}
	seen := map[string]string{baseKey: "base"}
	//xtlint:sorted visit order immaterial: each knob is checked independently against the base key
	for field, mut := range content {
		cfg := base
		mut(&cfg)
		key := cfg.CanonicalConfigKey()
		if prev, dup := seen[key]; dup {
			t.Errorf("flipping %s aliases with %s: key %s", field, prev, key)
			continue
		}
		seen[key] = field
	}

	execution := map[string]func(*Config){
		"Workers":              func(c *Config) { c.Workers = 8 },
		"reference.noROMCache": func(c *Config) { c.reference.noROMCache = true },
		"reference.oneShot":    func(c *Config) { c.reference.oneShot = true },
		"Collector":            func(c *Config) { c.Collector = NewMetricsCollector() },
	}
	//xtlint:sorted visit order immaterial: each knob is checked independently against the base key
	for field, mut := range execution {
		cfg := base
		mut(&cfg)
		if key := cfg.CanonicalConfigKey(); key != baseKey {
			t.Errorf("execution knob %s changed the key:\n  base: %s\n  got:  %s", field, baseKey, key)
		}
	}
}

// TestReverifyConfigMismatch: a splice across differing canonical configs is
// refused — mixing results computed under different policies is never sound.
func TestReverifyConfigMismatch(t *testing.T) {
	cfg := Config{Model: FixedResistance, CapRatioThreshold: 0.03}
	baseV, baseRep, defText, _ := spliceFixture(t, cfg)
	base, err := baseV.BaseRun(baseRep)
	if err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Strict = true
	editV, err := NewVerifierFromDEF(strings.NewReader(defText), other)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := editV.Reverify(base); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("cross-config splice error = %v, want ErrConfigMismatch", err)
	}
}

// TestBaseRunRejectsUnusable: partial or foreign reports never become a base.
func TestBaseRunRejectsUnusable(t *testing.T) {
	cfg := Config{Model: FixedResistance, CapRatioThreshold: 0.03}
	v := engineVerifier(t, cfg)
	if _, err := v.BaseRun(nil); !errors.Is(err, ErrBaseUnusable) {
		t.Errorf("BaseRun(nil) error = %v, want ErrBaseUnusable", err)
	}
	if _, err := v.BaseRun(&Report{}); !errors.Is(err, ErrBaseUnusable) {
		t.Errorf("BaseRun(no diagnostics) error = %v, want ErrBaseUnusable", err)
	}
	rep, err := v.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// A report indexed against a verifier for a different design has the
	// wrong cluster population.
	otherCfg := cfg
	otherCfg.CapRatioThreshold = 0.5
	otherV := engineVerifier(t, otherCfg)
	if _, err := otherV.BaseRun(rep); !errors.Is(err, ErrBaseUnusable) {
		t.Errorf("BaseRun(foreign report) error = %v, want ErrBaseUnusable", err)
	}
	if _, _, err := v.Reverify(nil); !errors.Is(err, ErrBaseUnusable) {
		t.Errorf("Reverify(nil) error = %v, want ErrBaseUnusable", err)
	}
}

// TestAdviseRepairStaleAfterReverify: once a splice supersedes a victim's
// result, the base verifier refuses to advise repairs for it — the advice
// would be computed against a design that no longer matches the report.
func TestAdviseRepairStaleAfterReverify(t *testing.T) {
	cfg := Config{Model: FixedResistance, CapRatioThreshold: 0.03}
	baseV, baseRep, defText, victim := spliceFixture(t, cfg)

	// Before the splice, advice for the victim works.
	if _, err := baseV.AdviseRepair(victim); err != nil {
		t.Fatalf("pre-splice AdviseRepair(%s): %v", victim, err)
	}

	base, err := baseV.BaseRun(baseRep)
	if err != nil {
		t.Fatal(err)
	}
	editV, err := NewVerifierFromDEF(strings.NewReader(defText), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := editV.Reverify(base)
	if err != nil {
		t.Fatal(err)
	}
	staleSet := make(map[string]bool, len(stats.StaleVictims))
	for _, s := range stats.StaleVictims {
		staleSet[s] = true
	}
	if !staleSet[victim] {
		t.Fatalf("upsized victim %q not in stale set %v", victim, stats.StaleVictims)
	}
	if _, err := baseV.AdviseRepair(victim); !errors.Is(err, ErrStaleReport) {
		t.Errorf("post-splice AdviseRepair(%s) error = %v, want ErrStaleReport", victim, err)
	}
	// A victim the splice did not touch is still advisable.
	for _, viol := range baseRep.Violations {
		if staleSet[viol.Victim] {
			continue
		}
		if _, err := baseV.AdviseRepair(viol.Victim); err != nil {
			t.Errorf("untouched victim %s: %v", viol.Victim, err)
		}
		break
	}
	// The edited design's own verifier is unaffected by the base's staleness.
	if _, err := editV.AdviseRepair(victim); errors.Is(err, ErrStaleReport) {
		t.Errorf("reverified verifier wrongly treats %s as stale: %v", victim, err)
	}
}
