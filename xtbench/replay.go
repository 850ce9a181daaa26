package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"

	"xtverify"
	"xtverify/internal/analytic"
	"xtverify/internal/deflite"
	"xtverify/internal/design"
	"xtverify/internal/extract"
	"xtverify/internal/glitch"
	"xtverify/internal/prune"
)

// replayer replays operations through the layers' public functions with the
// engine's settings, recording a span around every call. It mirrors
// runEngine's default path (no timing windows, no logic correlation,
// default thresholds); the replay's cluster, screened and violation counts
// are checked against the engine's own report, so any drift between the two
// fails the traced run.
type replayer struct {
	tr   *tracer
	ctx  context.Context
	popt prune.Options
	bopt analytic.BoundOptions
	gopt glitch.Options
	// margin is the noise margin in volts, safety the screen's bound
	// inflation, thresh the violation threshold as a fraction of Vdd.
	margin, safety, thresh float64
}

// Engine defaults the replay mirrors (Config.setDefaults and pruneOptions).
const (
	defaultThreshFrac = 0.10
	defaultFixedOhms  = 1000
	defaultCapRatio   = 0.02
	defaultMaxAggr    = 12
	minCouplingF      = 0.5e-15
)

func newReplayer(tr *tracer, model xtverify.DriverModel) *replayer {
	gm, bm := glitch.ModelNonlinear, analytic.DriverNonlinear
	switch model {
	case xtverify.FixedResistance:
		gm, bm = glitch.ModelFixedR, analytic.DriverFixedR
	case xtverify.TimingLibrary:
		gm, bm = glitch.ModelTimingLibrary, analytic.DriverTimingLibrary
	}
	return &replayer{
		tr:     tr,
		ctx:    context.Background(),
		popt:   prune.Options{CapRatioThreshold: defaultCapRatio, MinCouplingF: minCouplingF, MaxAggressors: defaultMaxAggr},
		bopt:   analytic.BoundOptions{Model: bm, FixedOhms: defaultFixedOhms, Vdd: xtverify.Vdd},
		gopt:   glitch.Options{Model: gm, FixedOhms: defaultFixedOhms},
		margin: defaultThreshFrac * xtverify.Vdd,
		safety: xtverify.DefaultScreenSafetyFactor,
		thresh: defaultThreshFrac,
	}
}

// call records fn as one span named name in op.
func (r *replayer) call(op, name string, fn func() error) error {
	id := r.tr.begin(op, name)
	err := fn()
	r.tr.end(id)
	return err
}

// counts are what one replayed operation saw.
type counts struct {
	couplings, peakLive int
	// clusters is the pruned cluster count; evaluated the clusters the
	// screen saw, screened those it cleared, glitched those analysed.
	clusters, evaluated, screened, glitched, violations int
	prunedMean                                          float64
	romHits, romMisses                                  uint64
}

// unit is one cluster that reached the glitch layer, kept for repeats.
type unit struct {
	par *extract.Parasitics
	cl  *prune.Cluster
}

// analyze runs one cluster through the rung-0 screen and, unless cleared,
// the glitch engine — the engine's fast path, one fresh engine per cluster.
func (r *replayer) analyze(op string, par *extract.Parasitics, cl *prune.Cluster, cache *glitch.ROMCache, c *counts) (*unit, error) {
	c.evaluated++
	var bound float64
	var berr error
	r.call(op, "analytic.BoundCluster", func() error {
		bound, berr = analytic.BoundCluster(par, cl, r.bopt)
		return nil
	})
	if berr == nil && bound*(1+r.safety) < r.margin {
		c.screened++
		return nil, nil
	}
	frac, err := r.glitchPair(op, par, cl, cache)
	if err != nil {
		return nil, err
	}
	c.glitched++
	if frac >= r.thresh {
		c.violations++
	}
	return &unit{par: par, cl: cl}, nil
}

// glitchPair analyses both glitch polarities of one cluster and returns the
// worst peak as a fraction of Vdd.
func (r *replayer) glitchPair(op string, par *extract.Parasitics, cl *prune.Cluster, cache *glitch.ROMCache) (float64, error) {
	opts := r.gopt
	opts.Cache = cache
	var frac float64
	err := r.call(op, "glitch.AnalyzeGlitchPair", func() error {
		rise, fall, err := glitch.NewEngine(par, opts).AnalyzeGlitchPairContext(r.ctx, cl)
		if err != nil {
			return err
		}
		frac = math.Max(math.Abs(rise.PeakV), math.Abs(fall.PeakV)) / xtverify.Vdd
		return nil
	})
	return frac, err
}

// materialized replays a materialized operation: parse, extract, cluster,
// then screen and analyse every cluster in victim order against cache (a
// fresh per-operation cache when nil, like the engine's default).
func (r *replayer) materialized(op string, src io.Reader, cache *glitch.ROMCache) (counts, []unit, error) {
	if cache == nil {
		cache = glitch.NewROMCache(0)
	}
	h0, m0 := cache.Stats()
	root := r.tr.begin(op, "replay.op")
	defer r.tr.end(root)
	var c counts
	var d *design.Design
	if err := r.call(op, "deflite.Read", func() (err error) { d, err = deflite.Read(src); return err }); err != nil {
		return c, nil, err
	}
	var par *extract.Parasitics
	if err := r.call(op, "extract.Extract", func() (err error) { par, err = extract.Extract(d, extract.Tech025()); return err }); err != nil {
		return c, nil, err
	}
	var st prune.Stats
	var cls []*prune.Cluster
	r.call(op, "prune.ComputeStats", func() error { st = prune.ComputeStats(par, r.popt); return nil })
	r.call(op, "prune.Clusters", func() error { cls = prune.Clusters(par, r.popt); return nil })
	c.couplings, c.peakLive = len(par.Couplings), len(d.Nets)
	c.clusters, c.prunedMean = len(cls), st.PrunedMeanSize
	var kept []unit
	for _, cl := range cls {
		u, err := r.analyze(op, par, cl, cache, &c)
		if err != nil {
			return c, nil, err
		}
		if u != nil {
			kept = append(kept, *u)
		}
	}
	h1, m1 := cache.Stats()
	c.romHits, c.romMisses = h1-h0, m1-m0
	return c, kept, nil
}

// glitchRepeat analyses the kept clusters again in order against a fresh
// cache — more samples of the per-cluster glitch latency with the
// operation's cache behaviour.
func (r *replayer) glitchRepeat(op string, kept []unit) error {
	cache := glitch.NewROMCache(0)
	for _, u := range kept {
		if _, err := r.glitchPair(op, u.par, u.cl, cache); err != nil {
			return err
		}
	}
	return nil
}

// ecoJob is one completed job of the replayed chain: what the daemon keeps
// to anchor the next delta.
type ecoJob struct {
	v   *xtverify.Verifier
	rep *xtverify.Report
}

// ecoEdit is what one replayed repair produced.
type ecoEdit struct {
	job    ecoJob
	digest string
	stats  *xtverify.ReverifyStats
	// probed counts the recomputed clusters the probes re-analysed.
	probed counts
}

// ecoEdit replays the daemon's work for one chained upsize-driver repair on
// prev: serialize the previous design, parse and rewrite it with the repair,
// parse and extract the result, index the previous job, splice, render.
//
// NewVerifierFromDEF parses and extracts inside the root package, so the
// replay times deflite.Read and extract.Extract on the same text itself and
// builds the verifier in a "scaffold" span that no layer is credited with.
// After the splice, probes run prune and the recomputed clusters' screen and
// glitch analysis again — against probeCache, which has seen exactly the
// lookups the daemon's shared cache has — so those layers are timed from
// outside too; the splice's own time is the Reverify span minus the probes.
func (r *replayer) ecoEdit(op string, prev ecoJob, victim string, cfg xtverify.Config, probeCache *glitch.ROMCache) (ecoEdit, error) {
	root := r.tr.begin(op, "replay.op")
	defer r.tr.end(root)
	var out ecoEdit
	var prevDEF, defText strings.Builder
	if err := r.call(op, "deflite.Write", func() error { return prev.v.WriteDEF(&prevDEF) }); err != nil {
		return out, err
	}
	var d *design.Design
	if err := r.call(op, "deflite.Read", func() (err error) {
		d, err = deflite.Read(strings.NewReader(prevDEF.String()))
		return err
	}); err != nil {
		return out, err
	}
	if err := applyRepair(d, victim); err != nil {
		return out, err
	}
	if err := r.call(op, "deflite.Write", func() error { return deflite.Write(&defText, d) }); err != nil {
		return out, err
	}
	var par *extract.Parasitics
	if err := r.call(op, "deflite.Read", func() (err error) {
		d, err = deflite.Read(strings.NewReader(defText.String()))
		return err
	}); err != nil {
		return out, err
	}
	if err := r.call(op, "extract.Extract", func() (err error) { par, err = extract.Extract(d, extract.Tech025()); return err }); err != nil {
		return out, err
	}
	if err := r.call(op, "scaffold.NewVerifierFromDEF", func() (err error) {
		out.job.v, err = xtverify.NewVerifierFromDEF(strings.NewReader(defText.String()), cfg)
		return err
	}); err != nil {
		return out, err
	}
	var base *xtverify.BaseRun
	if err := r.call(op, "reverify.BaseRun", func() (err error) { base, err = prev.v.BaseRun(prev.rep); return err }); err != nil {
		return out, err
	}
	if err := r.call(op, "reverify.Reverify", func() (err error) {
		out.job.rep, out.stats, err = out.job.v.ReverifyContext(r.ctx, base)
		return err
	}); err != nil {
		return out, err
	}
	var text string
	if err := r.call(op, "engine.WriteText", func() (err error) { text, err = reportText(out.job.rep); return err }); err != nil {
		return out, err
	}
	out.digest = digestText(text)
	err := r.call(op, "probe", func() error {
		var err error
		out.probed, err = r.probeRecomputed(op, par, prev.rep, out.stats, probeCache)
		return err
	})
	return out, err
}

// probeRecomputed re-runs the splice's prune pass and the screen and glitch
// analysis of the clusters it recomputed.
func (r *replayer) probeRecomputed(op string, par *extract.Parasitics, prevRep *xtverify.Report, st *xtverify.ReverifyStats, cache *glitch.ROMCache) (counts, error) {
	var c counts
	var st0 prune.Stats
	var cls []*prune.Cluster
	r.call(op, "prune.ComputeStats", func() error { st0 = prune.ComputeStats(par, r.popt); return nil })
	r.call(op, "prune.Clusters", func() error { cls = prune.Clusters(par, r.popt); return nil })
	c.clusters, c.prunedMean = len(cls), st0.PrunedMeanSize
	recomputed := recomputedVictims(prevRep, st)
	h0, m0 := cache.Stats()
	for _, cl := range cls {
		if !recomputed(par.Design.Nets[cl.Victim].Name) {
			continue
		}
		if _, err := r.analyze(op, par, cl, cache, &c); err != nil {
			return c, err
		}
	}
	h1, m1 := cache.Stats()
	c.romHits, c.romMisses = h1-h0, m1-m0
	if c.evaluated != st.ClustersRecomputed {
		return c, fmt.Errorf("probe found %d recomputed clusters, the splice reported %d", c.evaluated, st.ClustersRecomputed)
	}
	return c, nil
}

// recomputedVictims reports whether a victim of the edited design was
// recomputed by the splice: superseded in the base (StaleVictims) or absent
// from it.
func recomputedVictims(prevRep *xtverify.Report, st *xtverify.ReverifyStats) func(string) bool {
	inBase := make(map[string]bool, len(prevRep.Diagnostics.Clusters))
	for _, c := range prevRep.Diagnostics.Clusters {
		inBase[c.Victim] = true
	}
	stale := make(map[string]bool, len(st.StaleVictims))
	for _, v := range st.StaleVictims {
		stale[v] = true
	}
	return func(victim string) bool { return stale[victim] || !inBase[victim] }
}

// collected is what the metrics collector kept for one operation.
type collected struct {
	reduceS, diagonalizeS, transientS      float64
	lanczos, newton, woodbury, divergences int64
}

// fromSnapshot reads the collector's phase totals and counters. The
// transient phase is opened once per scenario across a lockstep batch, so a
// batched glitch pair's two spans cover one interval: per cluster, the
// batched spans are counted once (two scenarios per batch).
func fromSnapshot(s *xtverify.MetricsSnapshot) collected {
	if s == nil {
		return collected{}
	}
	c := collected{
		reduceS:      float64(s.Phases["reduce"].TotalNs) / 1e9,
		diagonalizeS: float64(s.Phases["diagonalize"].TotalNs) / 1e9,
		lanczos:      s.Counters["lanczos_iterations"],
		newton:       s.Counters["newton_iterations"],
		woodbury:     s.Counters["woodbury_solves"],
		divergences:  s.Counters["newton_divergences"],
	}
	for _, cl := range s.Clusters {
		tr := cl.Phases["transient"]
		if tr.Count == 0 {
			continue
		}
		batched := float64(cl.Counters["scenarios_batched"])
		c.transientS += float64(tr.TotalNs) / 1e9 * (float64(tr.Count) - batched/2) / float64(tr.Count)
	}
	return c
}

func (c *collected) add(o collected) {
	c.reduceS += o.reduceS
	c.diagonalizeS += o.diagonalizeS
	c.transientS += o.transientS
	c.lanczos += o.lanczos
	c.newton += o.newton
	c.woodbury += o.woodbury
	c.divergences += o.divergences
}
