package xtverify

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"

	"xtverify/internal/analytic"
	"xtverify/internal/cellmodel"
	"xtverify/internal/cells"
	"xtverify/internal/design"
	"xtverify/internal/dsp"
	"xtverify/internal/extract"
	"xtverify/internal/glitch"
	"xtverify/internal/prune"
	"xtverify/internal/waveform"
)

// The golden tests pin absolute results, not just agreement between paths:
// the identity suites compare two paths within one build, so a change to a
// shared kernel that moves every path at once passes them all. These digests
// catch exactly that. A change to any constant below needs a reviewed reason
// recorded in CHANGES.md.

// skipUnlessGoldenArch skips on architectures other than the one the
// goldens were pinned on: Go may fuse a multiply and an add into one FMA
// instruction on arm64, ppc64le, s390x and riscv64, which moves low-order
// bits of every result.
func skipUnlessGoldenArch(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are pinned for amd64; GOARCH=%s may fuse multiply-adds and move low-order bits", runtime.GOARCH)
	}
}

// goldenDigest hashes a canonical byte stream: floats as their IEEE-754
// bits, strings length-prefixed, so distinct value sequences cannot collide
// by concatenation and no digit of precision is lost to formatting.
type goldenDigest struct{ h hash.Hash }

func newGoldenDigest() *goldenDigest { return &goldenDigest{h: sha256.New()} }

func (d *goldenDigest) u64(x uint64) { d.h.Write(binary.LittleEndian.AppendUint64(nil, x)) }

func (d *goldenDigest) num(n int) { d.u64(uint64(n)) }

func (d *goldenDigest) f64(x float64) { d.u64(math.Float64bits(x)) }

func (d *goldenDigest) flag(b bool) {
	if b {
		d.u64(1)
	} else {
		d.u64(0)
	}
}

func (d *goldenDigest) str(s string) {
	d.num(len(s))
	io.WriteString(d.h, s)
}

func (d *goldenDigest) floats(xs []float64) {
	d.num(len(xs))
	for _, x := range xs {
		d.f64(x)
	}
}

func (d *goldenDigest) table(m [][]float64) {
	d.num(len(m))
	for _, row := range m {
		d.floats(row)
	}
}

func (d *goldenDigest) wave(w *waveform.Waveform) {
	d.num(len(w.T))
	for i := range w.T {
		d.f64(w.T[i])
		d.f64(w.V[i])
	}
}

func (d *goldenDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

func checkGolden(t *testing.T, what, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s digest moved:\n  got  %s\n  want %s", what, got, want)
	}
}

// goldenModels are the three driver models the goldens cover.
var goldenModels = []struct {
	name  string
	model DriverModel
}{
	{"fixed", FixedResistance},
	{"library", TimingLibrary},
	{"nonlinear", NonlinearCellModel},
}

// TestGoldenReports pins the SHA-256 of the WriteText report (diagnostics
// block excluded) for the small DSP design under each driver model, plus one
// streamed run of the same design read back from DEF. On this design the DEF
// round trip moves no printed digit, so the streamed digest equals the
// in-memory TimingLibrary one.
func TestGoldenReports(t *testing.T) {
	skipUnlessGoldenArch(t)
	want := map[string]string{
		"fixed":        "c222f944afb9fac322c35557e2bddfee8a5b167c85e03f1e7639c4bd747aa135",
		"library":      "84dbfdd76f5a01ee6ea37734b250a3b944bbc4d0c113eed8b2e58689308aefd5",
		"nonlinear":    "a79d329118ed212684c77288b2d224bc457c21677048bc3ed6ca588e51810f14",
		"streamed-def": "84dbfdd76f5a01ee6ea37734b250a3b944bbc4d0c113eed8b2e58689308aefd5",
	}
	for _, m := range goldenModels {
		rep := renderReport(t, Config{Model: m.model, CapRatioThreshold: 0.03}, false)
		sum := sha256.Sum256([]byte(rep))
		checkGolden(t, m.name+" report", hex.EncodeToString(sum[:]), want[m.name])
	}

	var def bytes.Buffer
	if err := engineVerifier(t, Config{Model: TimingLibrary, CapRatioThreshold: 0.03}).WriteDEF(&def); err != nil {
		t.Fatal(err)
	}
	sv, err := NewVerifierFromDEF(&def, Config{Model: TimingLibrary, CapRatioThreshold: 0.03, StreamIngest: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sv.Run()
	if err != nil {
		t.Fatal(err)
	}
	rep.Diagnostics = nil
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(text.Bytes())
	checkGolden(t, "streamed-def report", hex.EncodeToString(sum[:]), want["streamed-def"])
}

// TestGoldenGlitchPairs pins every cluster's rising and falling glitch at
// full precision — peak bits and every receiver waveform sample — from the
// glitch engine the verifier configures, for each driver model. Reports
// print peaks to three decimals; this catches a last-bit move.
func TestGoldenGlitchPairs(t *testing.T) {
	skipUnlessGoldenArch(t)
	want := map[string]string{
		"fixed":     "12c64c473d99c6e3b3e21cd35528db327f49b9d6cd1a86199ab9d79a563fc49a",
		"library":   "d6e87012d376faabb533fcec700805cf839ac5cdb39b491bb0410d178cd7e216",
		"nonlinear": "82f07fd2a98741cbc66b30846a5a66a849d595f35494c70e41534973d825b2b0",
	}
	for _, m := range goldenModels {
		v := engineVerifier(t, Config{Model: m.model, CapRatioThreshold: 0.03})
		eng := glitch.NewEngine(v.par, v.baseGlitchOptions())
		d := newGoldenDigest()
		for _, cl := range prune.Clusters(v.par, v.pruneOptions()) {
			rise, fall, err := eng.AnalyzeGlitchPair(cl)
			if err != nil {
				t.Fatalf("%s: victim %d: %v", m.name, cl.Victim, err)
			}
			for _, r := range []*glitch.Result{rise, fall} {
				d.str(r.VictimName)
				d.f64(r.PeakV)
				d.wave(r.ReceiverWave)
			}
		}
		checkGolden(t, m.name+" glitch pairs", d.sum(), want[m.name])
	}
}

// TestGoldenAnalysisAPIs pins the results of the analyses beside the main
// run — timing impact, crosstalk-aware window refinement, glitch propagation
// and repair advice — at full precision on the small DSP design.
func TestGoldenAnalysisAPIs(t *testing.T) {
	skipUnlessGoldenArch(t)
	cfg := Config{Model: FixedResistance, CapRatioThreshold: 0.03}

	t.Run("timing-impact", func(t *testing.T) {
		v := engineVerifier(t, cfg)
		d := newGoldenDigest()
		for _, rising := range []bool{true, false} {
			impacts, err := v.RunTimingImpact(rising)
			if err != nil {
				t.Fatal(err)
			}
			d.num(len(impacts))
			for _, ti := range impacts {
				d.str(ti.Victim)
				d.f64(ti.BaseDelayPS)
				d.f64(ti.CoupledDelayPS)
				d.f64(ti.DeteriorationPct)
				d.num(ti.Aggressors)
			}
		}
		checkGolden(t, "timing impact", d.sum(), "e5f6b23662301589e82eebc35c1be0851436b9408eea299524f5331f85c592c1")
	})

	t.Run("refine-windows", func(t *testing.T) {
		twCfg := cfg
		twCfg.UseTimingWindows = true
		v := engineVerifier(t, twCfg)
		n, err := v.RefineTimingWindows(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		d := newGoldenDigest()
		d.num(n)
		for i := range v.des.Nets {
			w := v.des.Nets[i].Window
			d.f64(w.Early)
			d.f64(w.Late)
			d.f64(w.Slew)
			d.flag(w.Valid)
		}
		checkGolden(t, "refined windows", d.sum(), "3d06a11490264da68ef804cb82efc2e66e43a6e8359d5baac45c25cf0102a067")
	})

	v := engineVerifier(t, cfg)
	rep, err := v.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("small DSP design has no violations; the trace and repair goldens need one")
	}
	victim := rep.Violations[0].Victim

	t.Run("trace-glitch", func(t *testing.T) {
		tr, err := v.TraceGlitch(victim)
		if err != nil {
			t.Fatal(err)
		}
		d := newGoldenDigest()
		d.num(tr.Depth)
		d.flag(tr.ReachesLatch)
		for _, st := range tr.Stages {
			d.str(st.Net)
			d.str(st.Cell)
			d.f64(st.PeakV)
			d.flag(st.LatchInput)
		}
		checkGolden(t, "glitch trace", d.sum(), "c8459f20661ce4b2f194d9448c23beb4972825c8fb8ad9af8e41e64206d267c4")
	})

	t.Run("advise-repair", func(t *testing.T) {
		adv, err := v.AdviseRepair(victim)
		if err != nil {
			t.Fatal(err)
		}
		d := newGoldenDigest()
		d.str(adv.Victim)
		d.f64(adv.OriginalPeakV)
		for _, o := range adv.Options {
			d.str(o.Fix)
			d.str(o.Detail)
			d.f64(o.PeakV)
			d.flag(o.Clears)
			d.flag(o.Feasible)
		}
		d.str(adv.Recommended)
		checkGolden(t, "repair advice", d.sum(), "63a9f8e512d632db3499aa08558ff3656f37434709b27c99e01f6c63cbaf2ab8")
	})
}

// TestGoldenSPEF pins the SHA-256 of the small DSP design's SPEF dump: every
// net's total capacitance, pin attachment, grounded and coupling capacitor
// and wire resistor, printed as WriteSPEF prints them.
func TestGoldenSPEF(t *testing.T) {
	skipUnlessGoldenArch(t)
	var buf bytes.Buffer
	if err := engineVerifier(t, Config{Model: FixedResistance, CapRatioThreshold: 0.03}).WriteSPEF(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	checkGolden(t, "SPEF", hex.EncodeToString(sum[:]), "7e3de2be8a39aaf5ab2679038e9e30aabe823d6e22526c7e8f83904b022652bc")
}

// TestGoldenEM pins every field of every electromigration audit result on
// the small DSP design at full precision.
func TestGoldenEM(t *testing.T) {
	skipUnlessGoldenArch(t)
	rs, err := engineVerifier(t, Config{Model: FixedResistance, CapRatioThreshold: 0.03}).RunEM(EMOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d := newGoldenDigest()
	d.num(len(rs))
	for _, r := range rs {
		d.str(r.Net)
		d.str(r.DriverCell)
		d.f64(r.IAvgMA)
		d.f64(r.IRMSMA)
		d.f64(r.IPeakMA)
		d.f64(r.RMSUtilization)
		d.flag(r.Violation)
	}
	checkGolden(t, "EM audit", d.sum(), "34816479ad2a5a30e1f0a50c8e4825e82e79e589e196946e90bdfb0ee5d20ad3")
}

// TestGoldenReferencePaths pins the two paths the report never takes on a
// healthy run: the SPICE-class reference (SPICEGlitch, behavioural view under
// each driver model plus transistor level) and the fallback ladder's last
// rung (AnalyzeGlitchPair on the unreduced system, DirectMNA). Every eighth
// cluster of the small DSP design keeps the run short.
func TestGoldenReferencePaths(t *testing.T) {
	skipUnlessGoldenArch(t)
	want := map[string]string{
		"spice fixed":      "db4aab9814b7abf82a5cd21796607b588986ddfe5493dc3da48612f604fac99e",
		"spice library":    "8a29ae20d1ddc069045e261a29e57c4c69a7765de1717ea719d87fd2bc806433",
		"spice nonlinear":  "2ef8a51c120a1c3e5c8f2086ccbc28f6460f3b8aa5aedf78c77fd85e17d8378c",
		"spice transistor": "68b136363e41544b370af093f954028fee31a282b1c4e9d1062ce410eeaa6566",
		"direct fixed":     "e0bb2ddc175e284330359766abe3ef686b385af5413e697578c12c04ff7045c5",
		"direct library":   "21d729024a36d7aaa79d2e840efac37342d19e9a359761bd75b58f55d91eaaa5",
		"direct nonlinear": "3dc75d85af784f1a6043593c6abe87326a719d27128560398da9bdfe0c2db56a",
	}
	spiceDigest := func(eng *glitch.Engine, cls []*prune.Cluster, transistorLevel bool) string {
		d := newGoldenDigest()
		for _, cl := range cls {
			for _, rising := range []bool{true, false} {
				r, err := eng.SPICEGlitch(cl, rising, transistorLevel)
				if err != nil {
					t.Fatalf("SPICEGlitch victim %d: %v", cl.Victim, err)
				}
				d.str(r.VictimName)
				d.f64(r.PeakV)
				d.f64(r.PeakTime)
				d.wave(r.ReceiverWave)
			}
		}
		return d.sum()
	}
	for _, m := range goldenModels {
		v := engineVerifier(t, Config{Model: m.model, CapRatioThreshold: 0.03})
		var cls []*prune.Cluster
		for i, cl := range prune.Clusters(v.par, v.pruneOptions()) {
			if i%8 == 0 {
				cls = append(cls, cl)
			}
		}
		opts := v.baseGlitchOptions()
		checkGolden(t, "spice "+m.name, spiceDigest(glitch.NewEngine(v.par, opts), cls, false), want["spice "+m.name])
		if m.model == FixedResistance {
			// At transistor level the cells replace the driver models, so
			// one model covers it.
			checkGolden(t, "spice transistor", spiceDigest(glitch.NewEngine(v.par, opts), cls, true), want["spice transistor"])
		}

		opts.DirectMNA = true
		eng := glitch.NewEngine(v.par, opts)
		d := newGoldenDigest()
		for _, cl := range cls {
			rise, fall, err := eng.AnalyzeGlitchPair(cl)
			if err != nil {
				t.Fatalf("%s: DirectMNA victim %d: %v", m.name, cl.Victim, err)
			}
			for _, r := range []*glitch.Result{rise, fall} {
				d.str(r.VictimName)
				d.f64(r.PeakV)
				d.f64(r.PeakTime)
				d.num(r.ReducedOrder)
				d.wave(r.ReceiverWave)
			}
		}
		checkGolden(t, "direct "+m.name, d.sum(), want["direct "+m.name])
	}
}

// TestGoldenScreenBounds pins the rung-0 screen's bound for every cluster of
// the small DSP design under each driver model, at full precision: reports
// print only the screened bounds, to four decimals. A cluster the screen
// refuses (ErrCannotScreen) hashes as a marker.
func TestGoldenScreenBounds(t *testing.T) {
	skipUnlessGoldenArch(t)
	want := map[string]string{
		"fixed":     "52487b5d4977f8fb2fc4f6ede3de1e95e36df4c54ce990c40535785d9ea92a13",
		"library":   "40ef64758dccafc23260eb7e7aff918ae38bb00ea7db350b961d676fe5b683da",
		"nonlinear": "148046277e9586a54d31e3dfb139df7d62a3e72ca243e0c3a8ccd2f2f8130961",
	}
	for _, m := range goldenModels {
		v := engineVerifier(t, Config{Model: m.model, CapRatioThreshold: 0.03})
		opts := analytic.BoundOptions{Model: v.cfg.Model.kind(), FixedOhms: v.cfg.FixedOhms, Vdd: Vdd}
		d := newGoldenDigest()
		for _, cl := range prune.Clusters(v.par, v.pruneOptions()) {
			b, err := analytic.BoundCluster(v.par, cl, opts)
			switch {
			case errors.Is(err, analytic.ErrCannotScreen):
				d.str("cannot screen")
			case err != nil:
				t.Fatalf("%s: victim %d: %v", m.name, cl.Victim, err)
			default:
				d.f64(b)
			}
		}
		checkGolden(t, m.name+" screen bounds", d.sum(), want[m.name])
	}
}

// TestGoldenCharacterization pins every cell characterization the driver
// models and the screen read, for each distinct cell on the small DSP
// design's drivers and receivers: the NLDM tables, the DC transfer curve and
// its corners, both output-stage I–V curves and the I–V surface, all at
// their default grids.
func TestGoldenCharacterization(t *testing.T) {
	skipUnlessGoldenArch(t)
	v := engineVerifier(t, Config{Model: FixedResistance, CapRatioThreshold: 0.03})
	byName := map[string]*cells.Cell{}
	for _, n := range v.des.Nets {
		for _, p := range append(append([]design.Pin(nil), n.Drivers...), n.Receivers...) {
			byName[p.Cell.Name] = p.Cell
		}
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)

	d := newGoldenDigest()
	d.num(len(names))
	for _, name := range names {
		c := byName[name]
		d.str(name)
		tm, err := cells.CharacterizeCached(c)
		if err != nil {
			t.Fatalf("%s timing: %v", name, err)
		}
		d.table(tm.DelayRise)
		d.table(tm.DelayFall)
		d.table(tm.TransRise)
		d.table(tm.TransFall)
		vtc, err := cells.CharacterizeVTC(c)
		if err != nil {
			t.Fatalf("%s VTC: %v", name, err)
		}
		d.floats(vtc.Vin)
		d.floats(vtc.Vout)
		d.floats([]float64{vtc.VIL, vtc.VIH, vtc.VOL, vtc.VOH, vtc.VM, vtc.NML, vtc.NMH})
		for _, st := range []cellmodel.Stage{cellmodel.StagePullDown, cellmodel.StagePullUp} {
			iv, err := cellmodel.CharacterizeIV(c, st, 0)
			if err != nil {
				t.Fatalf("%s I-V stage %d: %v", name, st, err)
			}
			d.floats(iv.V)
			d.floats(iv.I)
		}
		surf, err := cellmodel.CharacterizeIVSurface(c, 0, 0)
		if err != nil {
			t.Fatalf("%s I-V surface: %v", name, err)
		}
		d.floats(surf.U)
		for _, cv := range surf.Curves {
			d.floats(cv.V)
			d.floats(cv.I)
		}
	}
	checkGolden(t, "characterization", d.sum(), "c3a5a1e7e06f5c45d66f7d894bf26743f0e0b1295f015404177e05cbd73414a1")
}

// couplingDigest hashes a coupling list in its given order: four indices
// and the Farads bits per coupling.
func couplingDigest(cc []extract.Coupling) *goldenDigest {
	g := newGoldenDigest()
	g.num(len(cc))
	for _, c := range cc {
		g.num(c.NetA)
		g.num(c.NodeA)
		g.num(c.NetB)
		g.num(c.NodeB)
		g.f64(c.Farads)
	}
	return g
}

// parasiticsDigest hashes extracted parasitics: every coupling in canonical
// order, then every net's grounded capacitance.
func parasiticsDigest(par *extract.Parasitics) string {
	g := couplingDigest(par.Couplings)
	g.num(len(par.Nets))
	for _, n := range par.Nets {
		g.floats(n.CapF)
	}
	return g.sum()
}

// TestGoldenChipExtraction pins the extractor on a ten-channel chip, where
// the channels' vertical METAL1 stubs share x-strips and the frontier index
// must find couplings across the whole stack: every materialized coupling in
// canonical order (four indices and the Farads bits) plus every net's
// grounded capacitance, and the sorted couplings of a default-slack Streamer
// fed the same nets. The smallDSP() goldens have one channel, so no strip
// there is shared across channels.
func TestGoldenChipExtraction(t *testing.T) {
	skipUnlessGoldenArch(t)
	d, err := dsp.Generate(dsp.Config{Seed: 1999, Channels: 10, TracksPerChannel: 400,
		ChannelLengthUM: 70, BusFraction: 0.05, LatchFraction: 0.25,
		ClockSpines: 1, TrackPitchUM: 1.8})
	if err != nil {
		t.Fatal(err)
	}
	par, err := extract.Extract(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "materialized chip extraction", parasiticsDigest(par), "359080b02184aaa28d80d021e0ff53dd8b21f12524dbdd72871b9e21337ff371")

	s := extract.NewStreamer(nil, extract.DefaultFrontierSlackUM)
	var streamed []extract.Coupling
	for _, n := range d.Nets {
		_, final, _, err := s.AddNet(n)
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, final...)
	}
	s.Finish()
	sort.Slice(streamed, func(i, j int) bool {
		a, b := streamed[i], streamed[j]
		if a.NetA != b.NetA {
			return a.NetA < b.NetA
		}
		if a.NodeA != b.NodeA {
			return a.NodeA < b.NodeA
		}
		if a.NetB != b.NetB {
			return a.NetB < b.NetB
		}
		return a.NodeB < b.NodeB
	})
	checkGolden(t, "streamed chip extraction", couplingDigest(streamed).sum(), "1f39a588b168c8b8164ca4947cc570616fcf5e092feb8fac6cf7e49625505836")
}

// TestGoldenWorkCounters pins the deterministic work a serial run of the
// small DSP design does under each driver model: block Lanczos steps, Newton
// iterations and divergences, Woodbury solves, and the prepared-transient
// layer's batching and reuse. Counter totals carry no timing noise, so a
// change that makes the numeric core do more or less work moves them
// exactly, even when every result keeps its bits.
func TestGoldenWorkCounters(t *testing.T) {
	skipUnlessGoldenArch(t)
	want := map[string]map[string]int64{
		"fixed": {"lanczos_iterations": 347, "newton_iterations": 192096, "woodbury_solves": 0,
			"newton_divergences": 0, "scenarios_batched": 96, "diagonalize_skipped": 48, "prepared_reuses": 0},
		"library": {"lanczos_iterations": 357, "newton_iterations": 196098, "woodbury_solves": 0,
			"newton_divergences": 0, "scenarios_batched": 0, "diagonalize_skipped": 0, "prepared_reuses": 0},
		"nonlinear": {"lanczos_iterations": 357, "newton_iterations": 316520, "woodbury_solves": 316520,
			"newton_divergences": 0, "scenarios_batched": 98, "diagonalize_skipped": 49, "prepared_reuses": 0},
	}
	names := []string{"lanczos_iterations", "newton_iterations", "woodbury_solves",
		"newton_divergences", "scenarios_batched", "diagonalize_skipped", "prepared_reuses"}
	for _, m := range goldenModels {
		coll := NewMetricsCollector()
		if _, err := engineVerifier(t, Config{Model: m.model, CapRatioThreshold: 0.03, Collector: coll}).Run(); err != nil {
			t.Fatal(err)
		}
		got := coll.Snapshot().Counters
		for _, name := range names {
			if got[name] != want[m.name][name] {
				t.Errorf("%s %s = %d, want %d", m.name, name, got[name], want[m.name][name])
			}
		}
	}
}

// TestGoldenRepair pins the upsize-driver repair edit. The base is the small
// DSP design read back from DEF under TimingLibrary. For each of the first
// two violating victims whose first driver has a stronger cell, it hashes the
// repaired design's report and parasitics. The reference applies the edit to
// the DEF view (upsizeInDEF: parse, re-cell every pin of the first driver
// instance, write) and parses the result again; UpsizeDriver, which edits a
// copy of the base design in memory, must hit the same constants.
func TestGoldenRepair(t *testing.T) {
	skipUnlessGoldenArch(t)
	cfg := Config{Model: TimingLibrary, CapRatioThreshold: 0.03}
	var def strings.Builder
	if err := engineVerifier(t, cfg).WriteDEF(&def); err != nil {
		t.Fatal(err)
	}
	base, err := NewVerifierFromDEF(strings.NewReader(def.String()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseRep, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	want := []struct{ victim, report, parasitics string }{
		{"ch0/n31", "676060d0869b7ec145cba4e9ef5e2f495057a9a6c2d011cff5173d9ec2719371",
			"9882694345569caf8c8446ca13a7be18bf98375ee766d7f5b87acb74ae100716"},
		{"ch0/n46", "cd6252be3041e6257f81d9602f7d754999c9296717fe96678cf5ad0cbefb3e27",
			"bbeef1581a983224c975b02766d1c317ba37869c9f8aedfd6dfebbca30e43103"},
	}
	var victims []string
	for _, viol := range baseRep.Violations {
		if len(victims) == len(want) {
			break
		}
		net, _ := base.des.NetByName(viol.Victim)
		if cells.NextStronger(net.Drivers[0].Cell) != nil {
			victims = append(victims, viol.Victim)
		}
	}
	if len(victims) != len(want) {
		t.Fatalf("repairable victims %q, want %d", victims, len(want))
	}
	baseParasitics := parasiticsDigest(base.par)
	digests := func(v *Verifier) (report, parasitics string) {
		t.Helper()
		rep, err := v.Run()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(identityText(t, rep)))
		return hex.EncodeToString(sum[:]), parasiticsDigest(v.par)
	}
	for i, w := range want {
		if victims[i] != w.victim {
			t.Errorf("repairable victim %d is %q, want %q", i, victims[i], w.victim)
			continue
		}
		edited, err := upsizeInDEF(def.String(), w.victim)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewVerifierFromDEF(strings.NewReader(edited), cfg)
		if err != nil {
			t.Fatal(err)
		}
		report, parasitics := digests(ref)
		if parasitics == baseParasitics {
			t.Errorf("upsizing %s's driver left the parasitics unchanged", w.victim)
		}
		checkGolden(t, w.victim+" DEF-edit report", report, w.report)
		checkGolden(t, w.victim+" DEF-edit parasitics", parasitics, w.parasitics)

		up, err := base.UpsizeDriver(w.victim, "", cfg)
		if err != nil {
			t.Fatal(err)
		}
		report, parasitics = digests(up)
		checkGolden(t, w.victim+" UpsizeDriver report", report, w.report)
		checkGolden(t, w.victim+" UpsizeDriver parasitics", parasitics, w.parasitics)
	}
}
