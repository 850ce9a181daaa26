package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"xtverify"
	"xtverify/internal/glitch"
)

// perLayer lists the per-layer metrics in BENCHMARK.json order. Every
// traced run prints all of them; a layer a workload never enters reads 0.
var perLayer = []struct{ name, unit string }{
	{"trace.overhead_frac", "frac"},
	{"deflite.parse_s", "s"},
	{"extract.busy_s", "s"},
	{"extract.couplings", "count"},
	{"extract.peak_live_nets", "count"},
	{"prune.busy_s", "s"},
	{"prune.clusters", "count"},
	{"prune.pruned_mean_nets", "nets"},
	{"analytic.busy_s", "s"},
	{"analytic.screened_frac", "frac"},
	{"glitch.busy_s", "s"},
	{"glitch.clusters", "count"},
	{"glitch.cluster_p50_ms", "ms"},
	{"glitch.cluster_p90_ms", "ms"},
	{"glitch.rom_cache_hit_frac", "frac"},
	{"sympvl.reduce_s", "s"},
	{"sympvl.lanczos_iters", "count"},
	{"romsim.diagonalize_s", "s"},
	{"romsim.transient_s", "s"},
	{"romsim.newton_iters", "count"},
	{"romsim.woodbury_solves", "count"},
	{"romsim.newton_divergences", "count"},
	{"cells.characterize_s", "s"},
	{"engine.self_s", "s"},
	{"engine.fallback_clusters", "count"},
	{"engine.unverified", "count"},
	{"reverify.base_index_ms", "ms"},
	{"reverify.splice_ms", "ms"},
	{"reverify.recomputed", "count"},
	{"reverify.reused_frac", "frac"},
	{"daemon.self_ms", "ms"},
	{"daemon.cached_jobs", "count"},
}

// layerValues is a traced run's per-layer metrics with their sample counts
// and notes.
type layerValues struct {
	v    map[string]float64
	n    map[string]int
	note map[string]string
}

func newLayerValues() *layerValues {
	return &layerValues{v: map[string]float64{}, n: map[string]int{}, note: map[string]string{}}
}

func (l *layerValues) set(name string, v float64, n int, note string) {
	l.v[name], l.n[name], l.note[name] = v, n, note
}

// glitchPercentiles sets the per-cluster glitch latency percentiles from the
// pooled glitch spans of ops.
func (l *layerValues) glitchPercentiles(spans []span, ops []string) {
	d := durations(spans, "glitch.AnalyzeGlitchPair", ops...)
	l.set("glitch.cluster_p50_ms", median(d), len(d), "per-cluster AnalyzeGlitchPair")
	if p90, ok := tail(d, 0.9); ok {
		l.set("glitch.cluster_p90_ms", p90.Value, p90.N, fmt.Sprintf("%d samples beyond", p90.Beyond))
	} else {
		l.set("glitch.cluster_p90_ms", 0, p90.N, fmt.Sprintf("not reported: %d samples beyond p90, needs %d", p90.Beyond, minTail))
	}
}

// collectorValues sets the sympvl and romsim metrics from the collector,
// scaled by per (1 for one operation, 1/edits for a mean per edit).
func (l *layerValues) collectorValues(c collected, n int, per float64, note string) {
	l.set("sympvl.reduce_s", c.reduceS*per, n, note)
	l.set("sympvl.lanczos_iters", float64(c.lanczos)*per, n, note)
	l.set("romsim.diagonalize_s", c.diagonalizeS*per, n, note)
	l.set("romsim.transient_s", c.transientS*per, n, note+"; batched glitch-pair spans counted once")
	l.set("romsim.newton_iters", float64(c.newton)*per, n, note)
	l.set("romsim.woodbury_solves", float64(c.woodbury)*per, n, note)
	l.set("romsim.newton_divergences", float64(c.divergences)*per, n, note)
}

// runTraced replays warm operations through the layers' public functions
// with spans around every call, reads the collector's counters from one
// end-to-end operation, and prints every per-layer metric.
func runTraced(o *options) (result, error) {
	tr := newTracer()
	var t tally
	lv := newLayerValues()
	var err error
	if o.w.eco {
		err = o.tracedEco(tr, &t, lv)
	} else {
		err = o.tracedBatch(tr, &t, lv)
	}
	if err != nil {
		return result{}, err
	}
	path := filepath.Join(o.in.dir, "spans.jsonl")
	if err := tr.write(path); err != nil {
		return result{}, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), path)
	res := result{Correct: t.failed == 0 && o.correct, Attempted: t.attempted, Failed: t.failed,
		Metrics: make(map[string]metric, len(perLayer))}
	fmt.Println("per-layer metrics:")
	for _, m := range perLayer {
		note, ok := lv.note[m.name]
		if !ok {
			note = "layer idle on this workload"
		}
		res.Metrics[m.name] = metric{lv.v[m.name], m.unit}
		printMetric(m.name, res.Metrics[m.name], lv.n[m.name], note)
	}
	fmt.Printf("operations: %s\n", t.String())
	return res, nil
}

// replayOp replays one batch operation from the DEF file.
func (o *options) replayOp(r *replayer, op string) (counts, []unit, error) {
	f, err := os.Open(o.in.def())
	if err != nil {
		return counts{}, nil, err
	}
	defer f.Close()
	return r.materialized(op, f, nil)
}

// sameCounts checks a replay against the engine's report for the same input.
func sameCounts(what string, c counts, clusters, screened, violations int) error {
	if c.clusters != clusters || c.screened != screened || c.violations != violations {
		return fmt.Errorf("%s: replay saw %d clusters, %d screened, %d violations; the engine %d, %d, %d",
			what, c.clusters, c.screened, c.violations, clusters, screened, violations)
	}
	return nil
}

// tracedBatch: a cold replay (this process's first operation), untraced
// warm operations for the window, one operation with the collector, a warm
// replay, and glitch repeats until the per-cluster p90 has ten samples
// beyond it.
func (o *options) tracedBatch(tr *tracer, t *tally, lv *layerValues) error {
	r := newReplayer(tr, o.w.cfg.Model)
	ref := o.reference(o.w.name)
	o.correct = o.correct && !ref.missing
	cold, _, err := o.replayOp(r, "cold")
	if err != nil {
		return fmt.Errorf("cold replay: %w", err)
	}
	times, _ := o.warmOps(t, ref)
	cfg := o.w.cfg
	cfg.Collector = xtverify.NewMetricsCollector()
	runtime.GC()
	e2e, _, err := batchOp(context.Background(), o.in.def(), cfg)
	if !t.record(e2e.outcome(err), ref.expect(e2e.digest)) {
		return fmt.Errorf("collector operation failed: %v", err)
	}
	runtime.GC()
	warm, kept, err := o.replayOp(r, "warm")
	if err != nil {
		return fmt.Errorf("warm replay: %w", err)
	}
	for _, c := range []struct {
		what string
		c    counts
	}{{"cold replay", cold}, {"warm replay", warm}} {
		if err := sameCounts(c.what, c.c, e2e.clusters, e2e.screened, e2e.violations); err != nil {
			fmt.Println("replay mismatch:", err)
			t.fail("replay counts")
		}
	}
	ops := []string{"warm"}
	for n, rep := warm.glitched, 1; n < 10*minTail && len(kept) > 0 && rep <= 12; rep++ {
		op := fmt.Sprintf("glitch-repeat-%d", rep)
		if err := r.glitchRepeat(op, kept); err != nil {
			return fmt.Errorf("glitch repeat: %w", err)
		}
		ops = append(ops, op)
		n += len(kept)
	}

	busy := layerBusy(tr.spans)
	w, c := busy["warm"], busy["cold"]
	tref := median(times)
	replayS := spanSeconds(tr.spans, "warm", "replay.op")
	layers := w["deflite"] + w["extract"] + w["prune"] + w["analytic"] + w["glitch"]
	nt := len(times)
	lv.set("trace.overhead_frac", replayS/tref-1, nt, fmt.Sprintf("warm replay %.4f s vs median untraced operation %.4f s", replayS, tref))
	lv.set("deflite.parse_s", w["deflite"], 1, "warm replay")
	lv.set("extract.busy_s", w["extract"], 1, "warm replay")
	lv.set("extract.couplings", float64(warm.couplings), 1, "")
	lv.set("extract.peak_live_nets", float64(warm.peakLive), 1, "")
	lv.set("prune.busy_s", w["prune"], 1, "warm replay")
	lv.set("prune.clusters", float64(warm.clusters), 1, "")
	lv.set("prune.pruned_mean_nets", warm.prunedMean, 1, "")
	lv.set("analytic.busy_s", w["analytic"], warm.evaluated, "warm replay")
	lv.set("analytic.screened_frac", frac(warm.screened, warm.evaluated), warm.evaluated, "cleared ÷ evaluated")
	lv.set("glitch.busy_s", w["glitch"], warm.glitched, "warm replay")
	lv.set("glitch.clusters", float64(warm.glitched), 1, "")
	lv.glitchPercentiles(tr.spans, ops)
	lv.set("glitch.rom_cache_hit_frac", frac(int(warm.romHits), int(warm.romHits+warm.romMisses)), int(warm.romHits+warm.romMisses), "warm replay, fresh per-operation cache")
	lv.collectorValues(fromSnapshot(e2e.metrics), 1, 1, "collector on one end-to-end operation")
	lv.set("cells.characterize_s", c["analytic"]+c["glitch"]-w["analytic"]-w["glitch"], 2, "cold minus warm replay of analytic + glitch")
	lv.set("engine.self_s", tref-layers, nt, "median untraced operation minus the warm replay's layers")
	lv.set("engine.fallback_clusters", float64(e2e.degraded), 1, "")
	lv.set("engine.unverified", float64(e2e.unverified), 1, "")
	return nil
}

// tracedEco: a cold replay of the base design (this process's first work),
// the untraced daemon window, the base job replayed through the root API
// and warm through the layers, then one pass of the chain's repairs
// replayed edit by edit. An edit recomputes about one glitch cluster, so the
// per-cluster glitch percentiles come from the warm base replay.
func (o *options) tracedEco(tr *tracer, t *tally, lv *layerValues) error {
	r := newReplayer(tr, xtverify.TimingLibrary)
	def, err := os.ReadFile(o.in.def())
	if err != nil {
		return err
	}
	victims, err := readVictims(o.in)
	if err != nil {
		return err
	}
	cold, _, err := r.materialized("base-cold", strings.NewReader(string(def)), nil)
	if err != nil {
		return fmt.Errorf("cold base replay: %w", err)
	}
	m, err := o.ecoWindow(t, false)
	if err != nil {
		return err
	}
	// Read the report cache, then let the daemon and its cached jobs go
	// before the replay.
	cachedJobs := m.srv.srv.Metrics().ReportCache.Entries
	m.srv = nil

	// The base job through the root API, against the cache the chain's
	// splices will share, as the daemon's jobs do.
	cfg := xtverify.Config{Model: xtverify.TimingLibrary, Workers: 1, SharedROMCache: xtverify.NewROMCache(0)}
	runtime.GC()
	bv, err := xtverify.NewVerifierFromDEF(strings.NewReader(string(def)), cfg)
	if err != nil {
		return err
	}
	brep, err := bv.RunContext(context.Background())
	if err != nil {
		return err
	}
	if text, err := reportText(brep); err != nil || digestText(text) != m.baseDigest {
		t.fail("replayed base digest")
	}
	probeCache := glitch.NewROMCache(0)
	warm, _, err := r.materialized("base-warm", strings.NewReader(string(def)), probeCache)
	if err != nil {
		return fmt.Errorf("warm base replay: %w", err)
	}
	for _, c := range []struct {
		what string
		c    counts
	}{{"cold base replay", cold}, {"warm base replay", warm}} {
		if err := sameCounts(c.what, c.c, brep.Prune.ClustersAnalyzed, brep.Screening.Screened, len(brep.Violations)); err != nil {
			fmt.Println("replay mismatch:", err)
			t.fail("replay counts")
		}
	}

	var (
		ops                                      []string
		edits                                    []ecoEdit
		col                                      collected
		reused, recomputed, degraded, unverified int
	)
	prev := ecoJob{v: bv, rep: brep}
	for i, victim := range victims {
		op := fmt.Sprintf("edit-%02d", i)
		ecfg := cfg
		ecfg.Collector = xtverify.NewMetricsCollector()
		runtime.GC()
		e, err := r.ecoEdit(op, prev, victim, ecfg, probeCache)
		if err != nil {
			return fmt.Errorf("replay %s: %w", op, err)
		}
		want := m.pass1[i]
		if e.digest != want.digest {
			t.fail("replayed edit digest")
		}
		got := counts{clusters: e.job.rep.Prune.ClustersAnalyzed, screened: e.job.rep.Screening.Screened, violations: len(e.job.rep.Violations)}
		if err := sameCounts(op, got, want.resp.Clusters, want.resp.Screened, want.resp.Violations); err != nil {
			fmt.Println("replay mismatch:", err)
			t.fail("replay counts")
		}
		prev = e.job
		ops = append(ops, op)
		edits = append(edits, e)
		col.add(fromSnapshot(e.job.rep.Diagnostics.Metrics))
		reused += e.stats.ClustersReused
		recomputed += e.stats.ClustersRecomputed
		degraded = max(degraded, e.job.rep.Diagnostics.Degraded)
		unverified = max(unverified, e.job.rep.Diagnostics.Unverified)
	}

	busy := layerBusy(tr.spans)
	var (
		total, work, parse, baseIdx, splice, engSelf float64
		deflite, extract, prune, analytic, glitch    float64
		probe                                        counts
	)
	for i, op := range ops {
		b, sp := busy[op], tr.spans
		opTotal := spanSeconds(sp, op, "replay.op")
		opWork := opTotal - spanSeconds(sp, op, "scaffold.NewVerifierFromDEF") - spanSeconds(sp, op, "probe")
		bi, rv := spanSeconds(sp, op, "reverify.BaseRun"), spanSeconds(sp, op, "reverify.Reverify")
		total += opTotal
		work += opWork
		parse += spanSeconds(sp, op, "deflite.Read")
		baseIdx += bi
		splice += rv - b["prune"] - b["analytic"] - b["glitch"]
		engSelf += opWork - b["deflite"] - b["extract"] - bi - rv
		deflite += b["deflite"]
		extract += b["extract"]
		prune += b["prune"]
		analytic += b["analytic"]
		glitch += b["glitch"]
		p := edits[i].probed
		probe.clusters += p.clusters
		probe.evaluated += p.evaluated
		probe.screened += p.screened
		probe.glitched += p.glitched
		probe.prunedMean += p.prunedMean
		probe.romHits += p.romHits
		probe.romMisses += p.romMisses
	}

	n := len(edits)
	per := 1 / float64(n)
	reqS := mean(m.opSeconds)
	note := fmt.Sprintf("mean per replayed edit, %d edits", n)
	lv.set("trace.overhead_frac", total*per/reqS-1, n, fmt.Sprintf("replayed edit %.4f s vs mean untraced request %.4f s", total*per, reqS))
	lv.set("deflite.parse_s", parse*per, n, note+"; two parses per edit")
	lv.set("extract.busy_s", extract*per, n, note)
	lv.set("extract.couplings", float64(warm.couplings), 1, "base design")
	lv.set("extract.peak_live_nets", float64(warm.peakLive), 1, "base design")
	lv.set("prune.busy_s", prune*per, n, note+"; probe of the splice's prune pass")
	lv.set("prune.clusters", float64(probe.clusters)*per, n, note)
	lv.set("prune.pruned_mean_nets", probe.prunedMean*per, n, note)
	lv.set("analytic.busy_s", analytic*per, probe.evaluated, note+"; probe of the recomputed clusters")
	lv.set("analytic.screened_frac", frac(probe.screened, probe.evaluated), probe.evaluated, "cleared ÷ evaluated, recomputed clusters")
	lv.set("glitch.busy_s", glitch*per, probe.glitched, note+"; probe of the recomputed clusters")
	lv.set("glitch.clusters", float64(probe.glitched)*per, n, note)
	lv.glitchPercentiles(tr.spans, []string{"base-warm"})
	lv.set("glitch.rom_cache_hit_frac", frac(int(probe.romHits), int(probe.romHits+probe.romMisses)), int(probe.romHits+probe.romMisses),
		"probe cache mirroring the daemon's shared cache")
	lv.collectorValues(col, n, per, "collector on every replayed splice, "+note)
	bc, bw := busy["base-cold"], busy["base-warm"]
	lv.set("cells.characterize_s", bc["analytic"]+bc["glitch"]-bw["analytic"]-bw["glitch"], 2,
		"cold minus warm base replay of analytic + glitch")
	lv.set("engine.self_s", engSelf*per, n, note+"; verifier-level work outside the layers (report rendering)")
	lv.set("engine.fallback_clusters", float64(degraded), n, "max over replayed edits")
	lv.set("engine.unverified", float64(unverified), n, "max over replayed edits")
	lv.set("reverify.base_index_ms", baseIdx*per*1e3, n, note+"; BaseRun of the previous job")
	lv.set("reverify.splice_ms", splice*per*1e3, n, note+"; Reverify minus the probed prune, analytic and glitch")
	lv.set("reverify.recomputed", float64(recomputed)*per, n, note)
	lv.set("reverify.reused_frac", frac(reused, reused+recomputed), reused+recomputed, "reused ÷ (reused + recomputed)")
	lv.set("daemon.self_ms", (reqS-work*per)*1e3, len(m.opSeconds), fmt.Sprintf("mean request %.4f s minus mean replayed verifier work %.4f s", reqS, work*per))
	lv.set("daemon.cached_jobs", float64(cachedJobs), 1, "report cache entries after the window")
	return nil
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// spanSeconds sums the durations of op's spans named name, in seconds.
func spanSeconds(spans []span, op, name string) float64 {
	var ns int64
	for _, s := range spans {
		if s.Op == op && s.Name == name {
			ns += s.dur()
		}
	}
	return float64(ns) / 1e9
}
