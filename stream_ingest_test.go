package xtverify

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"xtverify/internal/cells"
	"xtverify/internal/deflite"
	"xtverify/internal/design"
	"xtverify/internal/extract"
	"xtverify/internal/prune"
)

// streamBenchDSP is the acceptance design of the streaming-ingest work: the same
// 2-channel configuration BenchmarkChipVerify runs (~148 analyzed clusters).
func streamBenchDSP() DSPConfig {
	return DSPConfig{Seed: 1999, Channels: 2, TracksPerChannel: 80,
		ChannelLengthUM: 70, BusFraction: 0.05, LatchFraction: 0.25,
		ClockSpines: 1, TrackPitchUM: 1.8}
}

// streamReportText renders rep with every run-dependent diagnostic normalized
// away, leaving exactly the bytes the identity contract pins.
func streamReportText(t *testing.T, rep *Report) string {
	t.Helper()
	if rep.Diagnostics != nil {
		rep.Diagnostics.WallTime = 0
		for i := range rep.Diagnostics.Clusters {
			rep.Diagnostics.Clusters[i].WallTime = 0
		}
	}
	var b bytes.Buffer
	if err := rep.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestStreamReportIdentityDSP is the tentpole acceptance test: a streamed
// run's report must be byte-identical to a materialized run's — serial,
// parallel, cache-off and warm-store alike, with screening on.
func TestStreamReportIdentityDSP(t *testing.T) {
	dspCfg := streamBenchDSP()

	variants := []struct {
		name string
		cfg  func(t *testing.T) Config
	}{
		{"serial", func(t *testing.T) Config { return Config{Model: TimingLibrary, Workers: 1} }},
		{"workers8", func(t *testing.T) Config { return Config{Model: TimingLibrary, Workers: 8} }},
		{"cache-off", func(t *testing.T) Config {
			cfg := Config{Model: TimingLibrary}
			cfg.reference.noROMCache, cfg.reference.oneShot = true, true
			return cfg
		}},
		{"warm-store", func(t *testing.T) Config {
			store, err := OpenROMStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return Config{Model: TimingLibrary, ROMStore: store}
		}},
	}
	for _, tc := range variants {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg(t)
			mv, err := NewVerifierFromDSP(dspCfg, cfg)
			if err != nil {
				t.Fatal(err)
			}
			mrep, err := mv.RunContext(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			want := streamReportText(t, mrep)
			if mrep.Prune.ClustersAnalyzed < 100 {
				t.Fatalf("bench design yields only %d clusters; the identity check needs a real population", mrep.Prune.ClustersAnalyzed)
			}

			cfg.StreamIngest = true
			runs := 1
			if tc.name == "warm-store" {
				runs = 2 // second run replays reductions from disk
			}
			for i := 0; i < runs; i++ {
				sv, err := NewVerifierFromDSP(dspCfg, cfg)
				if err != nil {
					t.Fatal(err)
				}
				srep, err := sv.RunContext(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if got := streamReportText(t, srep); got != want {
					t.Fatalf("streamed run %d report differs from materialized:\n--- streamed\n%s\n--- materialized\n%s", i, got, want)
				}
			}
		})
	}
}

// TestStreamReportIdentityDEF round-trips the bench design through DEF and
// checks a streamed DEF ingest against the materialized DEF ingest.
func TestStreamReportIdentityDEF(t *testing.T) {
	mv, err := NewVerifierFromDSP(streamBenchDSP(), Config{Model: TimingLibrary})
	if err != nil {
		t.Fatal(err)
	}
	var def bytes.Buffer
	if err := mv.WriteDEF(&def); err != nil {
		t.Fatal(err)
	}
	defBytes := def.Bytes()

	dv, err := NewVerifierFromDEF(bytes.NewReader(defBytes), Config{Model: TimingLibrary, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	drep, err := dv.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := streamReportText(t, drep)

	sv, err := NewVerifierFromDEF(bytes.NewReader(defBytes), Config{Model: TimingLibrary, StreamIngest: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	srep, err := sv.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := streamReportText(t, srep); got != want {
		t.Fatalf("streamed DEF report differs from materialized:\n--- streamed\n%s\n--- materialized\n%s", got, want)
	}
}

// TestStreamCounters checks the schema-v4 streaming counters against the
// report's own accounting.
func TestStreamCounters(t *testing.T) {
	cfg := Config{Model: TimingLibrary, StreamIngest: true, Collector: NewMetricsCollector()}
	sv, err := NewVerifierFromDSP(streamBenchDSP(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sv.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Diagnostics.Metrics
	if s == nil {
		t.Fatal("no metrics snapshot")
	}
	if got := s.Counters["nets_streamed"]; got != int64(rep.NetCount) {
		t.Errorf("nets_streamed = %d, want the report's net count %d", got, rep.NetCount)
	}
	if got := s.Counters["clusters_emitted_eager"]; got != int64(rep.Prune.ClustersAnalyzed) {
		t.Errorf("clusters_emitted_eager = %d, want clusters analyzed %d", got, rep.Prune.ClustersAnalyzed)
	}
	peak := s.Counters["frontier_peak_nets"]
	if peak <= 0 || peak > int64(rep.NetCount) {
		t.Errorf("frontier_peak_nets = %d, want in (0, %d]", peak, rep.NetCount)
	}
}

// TestStreamGuards pins every materialized-only API to ErrStreamIngest on a
// streaming verifier, and the streaming-impossible knobs to construction
// failures.
func TestStreamGuards(t *testing.T) {
	sv, err := NewVerifierFromDSP(smallDSP(), Config{Model: FixedResistance, StreamIngest: true})
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	checks := map[string]func() error{
		"WriteSPEF":    func() error { return sv.WriteSPEF(&sink) },
		"WriteVerilog": func() error { return sv.WriteVerilog(&sink) },
		"WriteDEF":     func() error { return sv.WriteDEF(&sink) },
		"TraceGlitch":  func() error { _, err := sv.TraceGlitch("ch0/n0"); return err },
		"AdviseRepair": func() error { _, err := sv.AdviseRepair("ch0/n0"); return err },
		"UpsizeDriver": func() error { _, err := sv.UpsizeDriver("ch0/n0", "", Config{}); return err },
		"RefineTimingWindows": func() error {
			_, err := sv.RefineTimingWindows(context.Background())
			return err
		},
	}
	//xtlint:sorted independent per-API subchecks; no output ordering is asserted
	for name, fn := range checks {
		if err := fn(); !errors.Is(err, ErrStreamIngest) {
			t.Errorf("%s on a streaming verifier = %v, want ErrStreamIngest", name, err)
		}
	}
	if _, err := NewVerifierFromDSP(smallDSP(), Config{StreamIngest: true, UseTimingWindows: true}); !errors.Is(err, ErrStreamIngest) {
		t.Errorf("StreamIngest+UseTimingWindows construction = %v, want ErrStreamIngest", err)
	}
}

// TestTimingImpactIdentity holds RunTimingImpact to the executor's identity
// contract: streamed ≡ materialized ≡ Workers=8 ≡ cold and warm ROMStore, bit
// for bit, on both victim edges under both linear driver models.
func TestTimingImpactIdentity(t *testing.T) {
	impacts := func(t *testing.T, cfg Config, rising bool) []TimingImpact {
		t.Helper()
		v, err := NewVerifierFromDSP(smallDSP(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := v.RunTimingImpact(rising)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, model := range []DriverModel{FixedResistance, TimingLibrary} {
		store, err := OpenROMStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		base := Config{Model: model, CapRatioThreshold: 0.03}
		variants := []struct {
			name string
			edit func(c *Config)
		}{
			{"workers8", func(c *Config) { c.Workers = 8 }},
			{"streamed", func(c *Config) { c.StreamIngest = true }},
			{"cold-store", func(c *Config) { c.ROMStore = store }},
			{"warm-store", func(c *Config) { c.ROMStore = store }},
		}
		for _, rising := range []bool{true, false} {
			serial := base
			serial.Workers = 1
			want := impacts(t, serial, rising)
			if len(want) < 10 {
				t.Fatalf("%v: only %d timing impacts; the identity check needs a real population", model, len(want))
			}
			for _, tc := range variants {
				cfg := base
				tc.edit(&cfg)
				hits := store.Stats().Hits
				got := impacts(t, cfg, rising)
				if tc.name == "warm-store" && store.Stats().Hits == hits {
					t.Errorf("%v rising=%t: the warm-store run read nothing from the store", model, rising)
				}
				if len(got) != len(want) {
					t.Fatalf("%v rising=%t %s: %d impacts, want %d", model, rising, tc.name, len(got), len(want))
				}
				for i := range want {
					g, w := got[i], want[i]
					if g.Victim != w.Victim || g.Aggressors != w.Aggressors ||
						math.Float64bits(g.BaseDelayPS) != math.Float64bits(w.BaseDelayPS) ||
						math.Float64bits(g.CoupledDelayPS) != math.Float64bits(w.CoupledDelayPS) ||
						math.Float64bits(g.DeteriorationPct) != math.Float64bits(w.DeteriorationPct) {
						t.Fatalf("%v rising=%t %s: impact %d = %+v, want %+v", model, rising, tc.name, i, g, w)
					}
				}
			}
		}
	}
}

// emDEF is smallDSP written to DEF: clock nets, and nets whose coupled
// component holds no cluster, next to clustered ones.
func emDEF(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	if err := engineVerifier(t, Config{}).WriteDEF(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestEMIdentity holds RunEM to the executor's identity contract: streamed ≡
// materialized ≡ Workers=8, every field bit for bit and in the same order,
// on a DEF with clock nets (which it skips) and with nets that no cluster
// reaches (which it audits).
func TestEMIdentity(t *testing.T) {
	def := emDEF(t)
	cfg := Config{Model: FixedResistance, CapRatioThreshold: 0.03}
	audit := func(t *testing.T, cfg Config) ([]EMResult, *Verifier) {
		t.Helper()
		v, err := NewVerifierFromDEF(strings.NewReader(def), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := v.RunEM(EMOptions{ActivityHz: 300e6})
		if err != nil {
			t.Fatal(err)
		}
		return rs, v
	}
	serial := cfg
	serial.Workers = 1
	want, mv := audit(t, serial)

	// The fixture must hold what the contract is about.
	clustered := make(map[int]bool)
	for _, cl := range prune.Clusters(mv.par, mv.pruneOptions()) {
		clustered[cl.Victim] = true
	}
	clocks, lone := 0, 0
	for _, comp := range prune.RawClusters(mv.par) {
		hit := false
		for _, n := range comp {
			hit = hit || clustered[n]
			if mv.des.Nets[n].ClockNet {
				clocks++
			}
		}
		if !hit {
			lone += len(comp)
		}
	}
	if clocks == 0 || lone == 0 || len(clustered) == 0 {
		t.Fatalf("fixture has %d clock nets, %d nets in cluster-free components, %d clusters; want all three", clocks, lone, len(clustered))
	}
	if len(want) != len(mv.des.Nets)-clocks {
		t.Fatalf("%d EM results for %d non-clock nets", len(want), len(mv.des.Nets)-clocks)
	}

	for _, tc := range []struct {
		name string
		edit func(c *Config)
	}{
		{"workers8", func(c *Config) { c.Workers = 8 }},
		{"streamed", func(c *Config) { c.StreamIngest = true; c.Workers = 1 }},
		{"streamed-workers8", func(c *Config) { c.StreamIngest = true; c.Workers = 8 }},
	} {
		c := cfg
		tc.edit(&c)
		c.Collector = NewMetricsCollector()
		got, _ := audit(t, c)
		if len(got) != len(want) {
			t.Fatalf("%s: %d results, want %d", tc.name, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Net != w.Net || g.DriverCell != w.DriverCell || g.Violation != w.Violation ||
				math.Float64bits(g.IAvgMA) != math.Float64bits(w.IAvgMA) ||
				math.Float64bits(g.IRMSMA) != math.Float64bits(w.IRMSMA) ||
				math.Float64bits(g.IPeakMA) != math.Float64bits(w.IPeakMA) ||
				math.Float64bits(g.RMSUtilization) != math.Float64bits(w.RMSUtilization) {
				t.Fatalf("%s: result %d = %+v, want %+v", tc.name, i, g, w)
			}
		}
		if c.StreamIngest {
			s := c.Collector.Snapshot()
			if got := s.Counters["nets_streamed"]; got != int64(len(mv.des.Nets)) {
				t.Errorf("%s: nets_streamed = %d, want %d", tc.name, got, len(mv.des.Nets))
			}
			if got := s.Counters["clusters_emitted_eager"]; got != int64(len(want)) {
				t.Errorf("%s: clusters_emitted_eager = %d, want one unit per audited net (%d)", tc.name, got, len(want))
			}
		}
	}
}

// TestRunEMRecoversPanic checks that a panic inside one net's audit fails
// RunEM with ErrPanic, naming the first failing net in net order, instead of
// crashing the caller.
func TestRunEMRecoversPanic(t *testing.T) {
	v, err := NewVerifierFromDEF(strings.NewReader(emDEF(t)), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// A net without driver nodes panics in em.AnalyzeNet's port lookup.
	var broken []string
	for i, n := range v.des.Nets {
		if !n.ClockNet && len(broken) < 2 && i > 3 {
			v.par.Nets[i].DriverNodes = nil
			broken = append(broken, n.Name)
		}
	}
	_, err = v.RunEM(EMOptions{})
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("RunEM over a broken net = %v, want ErrPanic", err)
	}
	want := "victim " + broken[0] + ":"
	//xtlint:errcmp the wrap's text is what names the failing net
	if !strings.Contains(err.Error(), want) {
		t.Errorf("RunEM error %q does not name %q", err, want)
	}
}

// TestStreamStrictFailFast checks strict mode through the streaming engine:
// an injected cluster failure aborts the run with that failure, not a
// cancellation echo.
func TestStreamStrictFailFast(t *testing.T) {
	sv, err := NewVerifierFromDSP(streamBenchDSP(), Config{Model: TimingLibrary, StreamIngest: true, Strict: true, Workers: 4, DisableScreening: true})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected cluster failure")
	sv.faultHook = func(victim string, stage FallbackStage) error {
		if victim == "ch1/n40" {
			return boom
		}
		return nil
	}
	_, err = sv.RunContext(context.Background())
	if !errors.Is(err, boom) {
		t.Fatalf("strict streamed run = %v, want the injected failure", err)
	}
}

// descendingSource streams nets bottom-up — the frontier invariant's
// canonical violation.
type descendingSource struct{}

func (descendingSource) Stream(ctx context.Context, ing *streamIngestor) error {
	if err := ing.StartDesign("descending"); err != nil {
		return err
	}
	drv, _ := cells.ByName("BUF_X2")
	rcv, _ := cells.ByName("INV_X1")
	for i := 0; i < 4; i++ {
		y := float64(3-i) * 100 // 300, 200, 100, 0: strictly descending
		n := &design.Net{
			Name:      fmt.Sprintf("d%d", i),
			Drivers:   []design.Pin{{Inst: fmt.Sprintf("D%d", i), Cell: drv, Pin: "Z", PosX: 0, PosY: y}},
			Receivers: []design.Pin{{Inst: fmt.Sprintf("R%d", i), Cell: rcv, Pin: "A", PosX: 50, PosY: y}},
			Route:     []design.Segment{{Layer: 2, X0: 0, Y0: y, X1: 50, Y1: y, Width: 0.6}},
		}
		if err := ing.AddNet(n); err != nil {
			return err
		}
	}
	return nil
}

// TestStreamFrontierViolation checks that out-of-order input surfaces the
// typed extract.FrontierError instead of silently dropping couplings.
func TestStreamFrontierViolation(t *testing.T) {
	cfg := Config{Model: FixedResistance, StreamFrontierSlackUM: 50}
	cfg.setDefaults()
	sv, err := newStreamVerifier(descendingSource{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sv.RunContext(context.Background())
	var fe *extract.FrontierError
	if !errors.As(err, &fe) {
		t.Fatalf("descending-y stream = %v, want *extract.FrontierError", err)
	}
	//xtlint:errcmp parser-style test asserting the rendered invariant hint
	if !strings.Contains(fe.Error(), "frontier invariant") {
		t.Errorf("frontier error text %q lacks the invariant hint", fe.Error())
	}
}

// dupNet is one net of a hand-built duplicate-name DEF: a 50 µm METAL2 wire
// at height y from a BUF_X2 driver to an INV_X1 receiver.
type dupNet struct {
	name string
	y    int // µm
}

// dupNetDEF renders nets as DEF and returns the line that declares the
// first repeated net name.
func dupNetDEF(nets []dupNet) (def string, dupLine int) {
	var b strings.Builder
	line := 0
	emit := func(format string, args ...any) {
		fmt.Fprintf(&b, format+"\n", args...)
		line++
	}
	emit("VERSION 5.8 ;")
	emit("DESIGN dup ;")
	emit("UNITS DISTANCE MICRONS 1000 ;")
	emit("COMPONENTS %d ;", 2*len(nets))
	for i, n := range nets {
		emit("- D%d BUF_X2 + PLACED ( 0 %d ) N ;", i, 1000*n.y)
		emit("- R%d INV_X1 + PLACED ( 50000 %d ) N ;", i, 1000*n.y)
	}
	emit("END COMPONENTS")
	emit("NETS %d ;", len(nets))
	seen := map[string]bool{}
	for i, n := range nets {
		emit("- %s ( D%d Z ) ( R%d A )", n.name, i, i)
		if seen[n.name] && dupLine == 0 {
			dupLine = line
		}
		seen[n.name] = true
		emit("+ ROUTED METAL2 600 ( 0 %d ) ( 50000 %d )", 1000*n.y, 1000*n.y)
		emit(";")
	}
	emit("END NETS")
	emit("END DESIGN")
	return b.String(), dupLine
}

// TestDuplicateNetNameRejected pins the duplicate-name contract on both
// front ends: a DEF that repeats a net name fails with a line-numbered
// *deflite.ParseError — never a panic, never a report naming one victim
// twice — whether or not the two copies share a coupled component.
func TestDuplicateNetNameRejected(t *testing.T) {
	layouts := []struct {
		name string
		nets []dupNet
	}{
		// The copies couple to each other.
		{"one component", []dupNet{{"a", 0}, {"a", 1}}},
		// Each copy couples to its own partner, 200 µm apart — far beyond the
		// frontier slack, so the first copy's component has closed (and its
		// cluster been emitted) before the second copy arrives.
		{"different components", []dupNet{{"a", 0}, {"b", 1}, {"a", 200}, {"c", 201}}},
	}
	for _, l := range layouts {
		def, dupLine := dupNetDEF(l.nets)
		for _, stream := range []bool{false, true} {
			mode := "materialized"
			if stream {
				mode = "streamed"
			}
			t.Run(l.name+"/"+mode, func(t *testing.T) {
				v, err := NewVerifierFromDEF(strings.NewReader(def), Config{Model: FixedResistance, StreamIngest: stream})
				if err == nil {
					_, err = v.RunContext(context.Background())
				}
				var pe *deflite.ParseError
				if !errors.As(err, &pe) {
					t.Fatalf("err = %v, want a *deflite.ParseError", err)
				}
				if pe.Line != dupLine || !strings.Contains(pe.Msg, `duplicate net name "a"`) {
					t.Errorf("parse error %q, want the duplicate name at line %d", pe, dupLine)
				}
			})
		}
	}
}
