// engine.go is the fault-tolerant, parallel cluster-verification engine —
// one executor for the glitch run, the timing analyses, a reverify splice's
// signing, BaseRun's index and the EM audit, fed by one of two cluster
// sources: the materialized source prunes a fully extracted chip, the
// streamed source (stream_ingest.go) emits each cluster while the design is
// still being read.
//
// The chip-level loop's whole value is coverage: a full-chip run over
// thousands of coupled clusters must not die because one pathological
// cluster defeats the numerics. RunContext therefore fans clusters out over
// a bounded worker pool, isolates each cluster behind recover(), enforces an
// optional per-cluster deadline, and — in degraded mode — walks a fallback
// ladder instead of failing:
//
//  1. SyMPVL reduction at the configured order (the fast path);
//  2. retry with a raised Gmin grounding conductance and a reduced order,
//     which cures most "G is not positive definite" breakdowns;
//  3. direct transient integration of the unreduced MNA system;
//  4. mark the victim Unverified with a structured ClusterError.
//
// Results are sorted back into victim order and assembled after all workers
// finish, so a parallel or streamed run's report is byte-identical to a
// serial materialized run's.
package xtverify

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"xtverify/internal/analytic"
	"xtverify/internal/cells"
	"xtverify/internal/design"
	"xtverify/internal/extract"
	"xtverify/internal/faultinject"
	"xtverify/internal/glitch"
	"xtverify/internal/obs"
	"xtverify/internal/prune"
	"xtverify/internal/romsim"
	"xtverify/internal/sympvl"
)

// DefaultScreenSafetyFactor is the bound inflation applied by the rung-0
// screen when Config.ScreenSafetyFactor is zero: the analytic bound is
// conservative by construction, the factor adds 25 % engineering margin on
// top before a cluster is cleared.
const DefaultScreenSafetyFactor = 0.25

// regularizedGmin is the grounding conductance used by StageRegularized,
// three orders of magnitude above mna.DefaultGmin: large enough to make any
// extraction-grade G matrix decisively positive definite, small enough (1 µS
// against kΩ interconnect) to stay below reporting accuracy.
const regularizedGmin = 1e-6

// ladder is the degradation sequence tried per cluster in degraded mode.
var ladder = [...]FallbackStage{StageReduced, StageRegularized, StageDirectMNA}

// ClusterOutcome is the per-cluster entry of the run diagnostics.
type ClusterOutcome struct {
	// Victim is the cluster's victim net name.
	Victim string
	// Stage is the rung that produced the result (StageUnverified if none).
	Stage FallbackStage
	// Attempts counts ladder rungs tried (1 = fast path succeeded).
	Attempts int
	// WallTime is the cluster's analysis time, all attempts included.
	WallTime time.Duration
	// CouplingF is the victim's retained coupling capacitance — the
	// severity proxy used to rank unverified victims.
	CouplingF float64
	// ScreenBoundV is the rung-0 analytic bound that cleared the cluster
	// (StageScreened only, 0 otherwise).
	ScreenBoundV float64
	// Err is the structured failure for unverified clusters, nil otherwise.
	Err *ClusterError
	// RecheckErr records a degraded-mode transistor-recheck failure; the
	// violation is still reported, just unconfirmed.
	RecheckErr error
}

// Diagnostics summarizes a fault-tolerant run for the report.
type Diagnostics struct {
	// Workers is the resolved worker-pool size.
	Workers int
	// Strict reports whether the run was fail-fast (no fallback ladder).
	Strict bool
	// WallTime is the end-to-end cluster-analysis time.
	WallTime time.Duration
	// Verified counts clusters that produced a result (any stage).
	Verified int
	// Degraded counts verified clusters that needed a fallback rung.
	Degraded int
	// Unverified counts clusters every rung failed on.
	Unverified int
	// ROMCacheHits and ROMCacheMisses count reduced-model memoization
	// outcomes across the run — this run's delta when Config.SharedROMCache
	// keeps one cache warm across runs (both zero when the cache is
	// disabled; attribution is approximate when concurrent runs share). They
	// are diagnostics only and deliberately absent from WriteText: eviction
	// and scheduling make them run-dependent, and the report must stay
	// byte-identical between serial and parallel runs.
	ROMCacheHits, ROMCacheMisses uint64
	// Clusters holds one outcome per analyzed cluster, in victim order.
	Clusters []ClusterOutcome
	// Metrics is the observability snapshot of the run, nil unless
	// Config.Collector was set. Like the cache statistics it is absent from
	// WriteText: counter totals are deterministic, but durations and the
	// queue gauge are run-dependent and would break report byte-identity.
	Metrics *MetricsSnapshot
}

// WorstUnverified returns up to n unverified outcomes ordered by retained
// coupling capacitance (the strongest-coupled, riskiest victims first).
func (d *Diagnostics) WorstUnverified(n int) []ClusterOutcome {
	var out []ClusterOutcome
	for _, c := range d.Clusters {
		if c.Err != nil {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].CouplingF != out[j].CouplingF {
			return out[i].CouplingF > out[j].CouplingF
		}
		return out[i].Victim < out[j].Victim
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// runParams resolves how the engine executes one run.
type runParams struct {
	workers int
	strict  bool
	timeout time.Duration
	// retries is the per-rung transient-failure retry budget; backoff the
	// base delay between retries (doubled per retry). With retries > 0 the
	// timeout applies per attempt instead of once per cluster.
	retries int
	backoff time.Duration
	// base, when non-nil, marks an incremental reverify: each worker signs
	// its cluster and takes base's recorded result when the signature
	// certifies it (spliceCluster). Spliced and fresh results are assembled
	// through the same code path, so the report stays byte-identical to a
	// cold run.
	base *BaseRun
	// perNet makes either source emit one unit per non-clock net, in place
	// of one per pruned cluster: the unit's cluster is that net alone, with
	// no aggressors. The EM audit reads every net, clustered or not.
	perNet bool
}

// clusterUnit is everything cluster analysis reads: the pruned cluster plus
// the parasitics/design its indices resolve against. The materialized source
// passes the whole-chip views; the streamed source passes component-scoped
// views whose local numbering reproduces the global computation bit for bit
// (see internal/prune stream.go). An analysis reads nothing else of the
// design, so it runs unchanged on either source.
type clusterUnit struct {
	cl  *prune.Cluster
	par *extract.Parasitics
	des *design.Design
}

// emitFunc hands one cluster, keyed by its victim's global net index, to the
// executor. It blocks while every worker is busy — which is what bounds
// in-flight memory under a fast streamed source — and returns an error only
// when the run is being aborted; the source must then stop and return it.
type emitFunc func(victim int, u clusterUnit) error

// sourceInfo is what a cluster source reports about the design it fed.
type sourceInfo struct {
	name string
	nets int
	// rawSizes lists the sizes of the raw (pre-pruning) coupled components;
	// components of fewer than two nets may be left out.
	rawSizes []int
}

// engineJob is one emitted cluster travelling from the source to a worker:
// the analysis views plus the slot the worker's result lands in. The source
// goroutine appends every job to the run's list before sending it, the
// worker writes res after receiving, and the caller reads after the pool
// drains — each handoff carries the needed happens-before edge.
type engineJob struct {
	victim int
	// size is the pruned cluster size, captured at emission because the
	// worker releases unit once the cluster is analyzed — holding every
	// streamed component's parasitics until report assembly would put peak
	// memory right back at O(chip).
	size int
	unit clusterUnit
	res  *clusterResult
}

// clusterResult is one worker's output for one cluster: impact for the
// delay analysis, em for the EM audit, the other fields for the glitch
// analysis.
type clusterResult struct {
	outcome   ClusterOutcome
	violation *Violation
	// trace is the cluster's observability record, nil when no collector
	// is configured. It is merged into the collector serially, in cluster
	// order, during result assembly.
	trace  *obs.Trace
	impact *glitch.TimingImpact
	em     *EMResult
	// sig is the cluster's structural signature, set when the run signs
	// (a splice or BaseRun's index); reused marks a result a splice took
	// from its base instead of analyzing the cluster.
	sig    string
	reused bool
	// err fails the run fast (the glitch ladder sets it in strict mode
	// only), wrapped exactly like the historical serial loop wrapped it.
	err error
}

// RunContext performs full-chip glitch verification like Run, but
// context-aware, parallel across clusters (Config.Workers, default
// GOMAXPROCS) and — unless Config.Strict is set — fault-tolerant: a cluster
// whose analysis fails walks the fallback ladder and, if every rung fails,
// is recorded as Unverified in the report's Diagnostics instead of aborting
// the run. Cancelling ctx aborts promptly with ctx's error.
func (v *Verifier) RunContext(ctx context.Context) (*Report, error) {
	rep, _, err := v.runEngine(ctx, v.glitchRun(nil))
	return rep, err
}

// glitchRun resolves the configured execution of a glitch run against base
// (nil for a cold run): one function, so a splice runs exactly as the cold
// run it must reproduce.
func (v *Verifier) glitchRun(base *BaseRun) runParams {
	return runParams{
		workers: v.cfg.Workers,
		strict:  v.cfg.Strict,
		timeout: v.cfg.ClusterTimeout,
		retries: v.cfg.RungRetries,
		backoff: v.cfg.RungRetryBackoff,
		base:    base,
	}
}

// baseGlitchOptions is the one place the run config is mapped onto the
// glitch engine's options — everything except the per-run cache wiring. The
// engine and every analysis API (timing impact, window refinement, glitch
// tracing, repair advice) start from it, so they analyze under one policy.
func (v *Verifier) baseGlitchOptions() glitch.Options {
	return glitch.Options{
		Model:               v.cfg.Model.kind(),
		FixedOhms:           v.cfg.FixedOhms,
		UseTimingWindows:    v.cfg.UseTimingWindows,
		UseLogicCorrelation: v.cfg.UseLogicCorrelation,
		DisableROMCache:     v.cfg.reference.noROMCache,
		DisablePrepared:     v.cfg.reference.oneShot,
	}
}

// cacheState snapshots the pre-run cache counters so diagnostics can report
// this run's deltas against a shared cache or store.
type cacheState struct {
	romCache                              *glitch.ROMCache
	cacheHits0, cacheMisses0, cacheEvict0 uint64
	store0                                ROMStoreStats
}

// setupEngineCaches wires the run's ROM cache and persistent store into
// baseOpts: one ROM cache for the whole run, shared by every worker and
// every ladder rung (Gmin and order changes are part of the cache key), so
// structurally identical clusters reduce once chip-wide. A caller may supply
// a longer-lived SharedROMCache (the daemon shares one across jobs) and/or a
// disk-persistent ROMStore behind it; diagnostics then report this run's
// deltas against the pre-run counters.
func (v *Verifier) setupEngineCaches(baseOpts *glitch.Options) cacheState {
	var cs cacheState
	if !baseOpts.DisableROMCache {
		if v.cfg.SharedROMCache != nil {
			cs.romCache = v.cfg.SharedROMCache
		} else {
			cs.romCache = glitch.NewROMCache(v.cfg.ROMCacheCap)
		}
		if v.cfg.ROMStore != nil {
			cs.romCache.SetBacking(v.cfg.ROMStore)
		}
		cs.cacheHits0, cs.cacheMisses0 = cs.romCache.Stats()
		cs.cacheEvict0 = cs.romCache.Evictions()
		baseOpts.Cache = cs.romCache
	}
	if v.cfg.ROMStore != nil {
		cs.store0 = v.cfg.ROMStore.Stats()
		// The store also persists prepared-transient cores (the factorization
		// behind the reduced model), so a warm process skips diagonalization
		// too. Gated on the same options as the layers it accelerates.
		if !baseOpts.DisableROMCache && !baseOpts.DisablePrepared {
			baseOpts.PreparedStore = v.cfg.ROMStore
		}
	}
	return cs
}

// recordCacheDeltas folds the run's cache/store activity into the
// diagnostics and counters.
func (v *Verifier) recordCacheDeltas(cs cacheState, diag *Diagnostics, col *MetricsCollector) {
	if cs.romCache != nil {
		hits, misses := cs.romCache.Stats()
		diag.ROMCacheHits, diag.ROMCacheMisses = hits-cs.cacheHits0, misses-cs.cacheMisses0
		col.Add(obs.CtrROMCacheHits, int64(diag.ROMCacheHits))
		col.Add(obs.CtrROMCacheMisses, int64(diag.ROMCacheMisses))
		col.Add(obs.CtrROMCacheEvictions, int64(cs.romCache.Evictions()-cs.cacheEvict0))
	}
	if st := v.cfg.ROMStore; st != nil {
		s1 := st.Stats()
		col.Add(obs.CtrROMStoreHits, int64(s1.Hits-cs.store0.Hits))
		col.Add(obs.CtrROMStoreWrites, int64(s1.Writes-cs.store0.Writes))
		col.Add(obs.CtrCacheCorruptDiscarded, int64(s1.CorruptDiscarded-cs.store0.CorruptDiscarded))
	}
}

// poolSize resolves Config.Workers: zero or negative means GOMAXPROCS.
func poolSize(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// runEngine is the glitch run: the executor runs the glitch ladder on every
// cluster — or, against a base, the splice — then the report is assembled
// once. It also returns the jobs, results set, in victim order.
func (v *Verifier) runEngine(ctx context.Context, p runParams) (*Report, []*engineJob, error) {
	col := v.cfg.Collector
	baseOpts := v.baseGlitchOptions()
	cs := v.setupEngineCaches(&baseOpts)
	start := time.Now() //xtlint:wallclock feeds Diagnostics.WallTime only, a run-dependent diagnostic
	jobs, info, err := v.runClusters(ctx, p, func(ctx context.Context, u clusterUnit) *clusterResult {
		if p.base != nil {
			return v.spliceCluster(ctx, baseOpts, u, p)
		}
		return v.analyzeCluster(ctx, baseOpts, u, p)
	})
	if err != nil {
		return nil, nil, err
	}

	// Diagnostics.Workers appears in the report, so it is clamped to the
	// cluster total (spliced clusters included): a run's report must not
	// depend on whether its source knew that total up front, and a spliced
	// report must match a cold run's byte for byte.
	workers := max(1, min(poolSize(p.workers), len(jobs)))
	diag := &Diagnostics{Workers: workers, Strict: p.strict}
	rep := &Report{DesignName: info.name, NetCount: info.nets, AnalyzedVictims: len(jobs)}
	if !v.cfg.DisableScreening {
		rep.Screening = &ScreeningSummary{
			SafetyFactor: v.cfg.ScreenSafetyFactor,
			MarginV:      v.cfg.GlitchThresholdFrac * Vdd,
		}
	}
	// One pass in victim order: every list below is deterministic and
	// identical between serial and parallel runs.
	sizes := make([]int, len(jobs))
	var reused int64
	for i, j := range jobs {
		r := j.res
		sizes[i] = j.size
		if r.reused {
			reused++
		}
		diag.Clusters = append(diag.Clusters, r.outcome)
		// Serial, cluster-order merge: this is what makes the aggregated
		// counter totals identical between serial and Workers=N runs.
		col.MergeTrace(r.outcome.Victim, r.outcome.Stage.String(), r.trace)
		if r.outcome.Err != nil {
			diag.Unverified++
		} else {
			diag.Verified++
			// Screened clusters are rung 0, not a degradation: the ladder
			// never ran for them.
			if r.outcome.Stage != StageReduced && r.outcome.Stage != StageScreened {
				diag.Degraded++
			}
		}
		if r.violation != nil {
			rep.Violations = append(rep.Violations, *r.violation)
		}
		if scr := rep.Screening; scr != nil && r.outcome.Stage == StageScreened {
			scr.Screened++
			scr.Clusters = append(scr.Clusters, ScreenedCluster{Victim: r.outcome.Victim, BoundV: r.outcome.ScreenBoundV})
		}
	}
	stats := prune.Summarize(info.rawSizes, sizes)
	rep.Prune = PruneSummary{
		RawMeanClusterNets:    stats.RawMeanSize,
		RawMaxClusterNets:     stats.RawMaxSize,
		PrunedMeanClusterNets: stats.PrunedMeanSize,
		PrunedMaxClusterNets:  stats.PrunedMaxSize,
		ClustersAnalyzed:      stats.PrunedClusters,
	}
	diag.WallTime = time.Since(start) //xtlint:wallclock run-dependent diagnostic, excluded from report identity
	v.recordCacheDeltas(cs, diag, col)
	if p.base != nil {
		col.Add(obs.CtrReverifyJobs, 1)
		col.Add(obs.CtrClustersReused, reused)
		col.Add(obs.CtrClustersRecomputed, int64(len(jobs))-reused)
	}
	if col != nil {
		col.SetWorkers(workers)
		col.SetWallTime(diag.WallTime)
		diag.Metrics = col.Snapshot()
	}
	rep.Diagnostics = diag
	sort.Slice(rep.Violations, func(i, j int) bool {
		if rep.Violations[i].FracVdd != rep.Violations[j].FracVdd {
			return rep.Violations[i].FracVdd > rep.Violations[j].FracVdd
		}
		return rep.Violations[i].Victim < rep.Violations[j].Victim
	})
	return rep, jobs, nil
}

// runClusters is the one cluster executor. It starts the worker pool, has
// the verifier's cluster source hand every cluster to one emit function —
// the materialized source after pruning the whole chip, the streamed source
// while ingest is still running — and runs analyze on each: the glitch
// ladder, a reverify splice's signing and reuse, BaseRun's signing, the
// delay impact, or (with p.perNet) the EM audit. It returns the jobs,
// results set, in global victim order; a result with err set fails the run
// fast.
func (v *Verifier) runClusters(ctx context.Context, p runParams,
	analyze func(ctx context.Context, u clusterUnit) *clusterResult) ([]*engineJob, sourceInfo, error) {
	col := v.cfg.Collector
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobCh := make(chan *engineJob)
	var wg sync.WaitGroup
	for w := poolSize(p.workers); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				if runCtx.Err() != nil {
					continue // run aborted: leave the slot unattempted
				}
				col.TaskStarted()
				j.res = analyzeRecovered(runCtx, j.unit, analyze)
				// Release the views: a streamed component's mini design and
				// parasitics are garbage once its clusters are analyzed, and
				// the caller only reads res, size and victim.
				j.unit = clusterUnit{}
				col.TaskDone()
				if j.res.err != nil {
					cancel() // fail fast: stop the source and drain
				}
			}
		}()
	}

	var jobs []*engineJob
	emit := func(victim int, u clusterUnit) error {
		j := &engineJob{victim: victim, size: u.cl.Size(), unit: u}
		jobs = append(jobs, j)
		select {
		case <-runCtx.Done():
			return runCtx.Err()
		case jobCh <- j:
			return nil
		}
	}
	var info sourceInfo
	var serr error
	if v.src != nil {
		info, serr = v.streamClusters(runCtx, p.perNet, emit)
	} else {
		info, serr = v.materializedClusters(p.perNet, emit)
	}
	close(jobCh)
	wg.Wait()

	// Caller cancellation or deadline wins over any per-cluster outcome.
	if err := ctx.Err(); err != nil {
		return nil, info, err
	}
	// Back into global victim order — the materialized source's emission
	// order, which every result the callers assemble assumes. Victims are
	// unique: each net is the victim of at most one cluster.
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].victim < jobs[b].victim })
	// Report the earliest genuine failure in victim order, exactly as a
	// serial loop would; skip casualties of our own fail-fast cancel.
	var firstAny error
	for _, j := range jobs {
		if j.res == nil || j.res.err == nil {
			continue
		}
		if !errors.Is(j.res.err, context.Canceled) {
			return nil, info, j.res.err
		}
		if firstAny == nil {
			firstAny = j.res.err
		}
	}
	if firstAny != nil {
		return nil, info, firstAny
	}
	if serr != nil {
		// A source failure: a typed parse or frontier error, or the echo of
		// our own fail-fast cancellation (whose cause was returned above).
		return nil, info, serr
	}
	return jobs, info, nil
}

// analyzeRecovered runs analyze on u and turns a panic into an ErrPanic
// result naming the victim, which fails the run instead of the process.
func analyzeRecovered(ctx context.Context, u clusterUnit,
	analyze func(ctx context.Context, u clusterUnit) *clusterResult) (res *clusterResult) {
	defer func() {
		if r := recover(); r != nil {
			res = &clusterResult{err: fmt.Errorf("%w: victim %s: %v", ErrPanic, u.des.Nets[u.cl.Victim].Name, r)}
		}
	}()
	return analyze(ctx, u)
}

// materializedClusters is the materialized cluster source: it clusters the
// whole-chip parasitics once and emits every cluster — or, with perNet,
// every non-clock net unpruned — in victim order, with the whole-chip
// views. The prune span covers clustering only, not the time spent blocked
// handing clusters to the pool.
func (v *Verifier) materializedClusters(perNet bool, emit emitFunc) (sourceInfo, error) {
	span := v.cfg.Collector.Start(obs.PhasePrune)
	raw := prune.RawClusters(v.par)
	var clusters []*prune.Cluster
	if perNet {
		clusters = netUnits(v.des)
	} else {
		clusters = prune.Clusters(v.par, v.pruneOptions())
	}
	span.End()
	info := sourceInfo{name: v.des.Name, nets: len(v.des.Nets), rawSizes: make([]int, len(raw))}
	for i, g := range raw {
		info.rawSizes[i] = len(g)
	}
	for _, cl := range clusters {
		if err := emit(cl.Victim, clusterUnit{cl: cl, par: v.par, des: v.des}); err != nil {
			return info, err
		}
	}
	return info, nil
}

// netUnits returns the per-net units of d (runParams.perNet): one cluster
// per non-clock net, that net alone, in net order.
func netUnits(d *design.Design) []*prune.Cluster {
	var out []*prune.Cluster
	for i, n := range d.Nets {
		if !n.ClockNet {
			out = append(out, &prune.Cluster{Victim: i})
		}
	}
	return out
}

// analyzeCluster runs one cluster down the ladder (or just the fast path in
// strict mode) under the per-cluster deadline.
func (v *Verifier) analyzeCluster(ctx context.Context, baseOpts glitch.Options, u clusterUnit, p runParams) *clusterResult {
	start := time.Now() //xtlint:wallclock feeds Outcome.WallTime only, a run-dependent diagnostic
	cl := u.cl
	victim := u.des.Nets[cl.Victim].Name
	tr := v.cfg.Collector.NewTrace()
	res := &clusterResult{outcome: ClusterOutcome{Victim: victim, CouplingF: cl.KeptF}, trace: tr}
	// With retries disabled one deadline budget spans the whole ladder (the
	// historical contract); with retries enabled each attempt gets a fresh
	// budget, created inside attemptStage.
	retrying := !p.strict && p.retries > 0
	cctx := ctx
	if p.timeout > 0 && !retrying {
		var cancel context.CancelFunc
		cctx, cancel = context.WithTimeout(ctx, p.timeout)
		defer cancel()
	}
	// Rung 0: the analytic screen. A cleared cluster never assembles an MNA
	// system, never builds (or consults) a ROM, never runs a transient. The
	// screen is skipped — falling through to the ladder, never the other way
	// around — when the run is being cancelled or the cluster's deadline has
	// already passed (the wall-clock check, not cctx.Err(): a 1 ns budget is
	// spent before the context's timer ever fires).
	if !v.cfg.DisableScreening && ctx.Err() == nil {
		expired := false
		if dl, ok := cctx.Deadline(); ok && !time.Now().Before(dl) { //xtlint:wallclock deadline fast-check; affects only the timeout path, never report bytes
			expired = true
		}
		if !expired {
			if bound, ok := v.screenCluster(u, victim, tr); ok {
				res.outcome.Stage = StageScreened
				res.outcome.WallTime = time.Since(start) //xtlint:wallclock WallTime is a run-dependent diagnostic, excluded from report identity
				res.outcome.ScreenBoundV = bound
				tr.Add(stageCounter(StageScreened), 1)
				return res
			}
		}
	}
	stages := ladder[:]
	if p.strict {
		stages = ladder[:1]
	}
	var attempts []Attempt
	for _, stage := range stages {
		viol, recheckErr, err := v.attemptStage(ctx, cctx, stage, baseOpts, tr, u, victim, p)
		if err == nil {
			res.outcome.Stage = stage
			res.outcome.Attempts = len(attempts) + 1
			res.outcome.WallTime = time.Since(start) //xtlint:wallclock WallTime is a run-dependent diagnostic, excluded from report identity
			res.outcome.RecheckErr = recheckErr
			res.violation = viol
			tr.Add(stageCounter(stage), 1)
			if p.strict && recheckErr != nil {
				res.err = recheckErr
			}
			return res
		}
		if p.strict {
			res.err = err
			res.outcome.Stage = StageUnverified
			res.outcome.Attempts = 1
			res.outcome.WallTime = time.Since(start) //xtlint:wallclock WallTime is a run-dependent diagnostic, excluded from report identity
			res.outcome.Err = &ClusterError{Victim: victim, Stage: stage,
				Attempts: []Attempt{{Stage: stage, Err: err}}}
			tr.Add(obs.CtrFallbackUnverified, 1)
			return res
		}
		cerr := classifyClusterErr(err)
		attempts = append(attempts, Attempt{Stage: stage, Err: cerr})
		if ctx.Err() != nil {
			break // the run is being cancelled — don't ladder further
		}
		if errors.Is(cerr, ErrTimeout) && !retrying {
			break // the per-cluster budget is consumed
		}
		// With per-attempt budgets (retrying), a timed-out rung does not
		// poison the rest of the ladder: the next rung starts fresh.
	}
	lastStage := StageReduced
	if n := len(attempts); n > 0 {
		lastStage = attempts[n-1].Stage
	}
	res.outcome.Stage = StageUnverified
	res.outcome.Attempts = len(attempts)
	res.outcome.WallTime = time.Since(start) //xtlint:wallclock WallTime is a run-dependent diagnostic, excluded from report identity
	res.outcome.Err = &ClusterError{Victim: victim, Stage: lastStage, Attempts: attempts}
	tr.Add(obs.CtrFallbackUnverified, 1)
	return res
}

// attemptStage runs one ladder rung, retrying transient failures when the
// run's retry policy allows. A failure is transient exactly when it
// classifies as ErrTimeout — a cluster starved under load whose own budget
// expired; cancellations (the parent is going away) and structural numerics
// failures (deterministic — retrying reproduces them) are returned
// immediately. Each retry waits an exponentially growing backoff and then
// re-attempts the same rung under a fresh per-attempt deadline.
func (v *Verifier) attemptStage(parent, cctx context.Context, stage FallbackStage, baseOpts glitch.Options,
	tr *obs.Trace, u clusterUnit, victim string, p runParams) (*Violation, error, error) {
	if p.strict || p.retries <= 0 {
		return v.attemptCluster(cctx, stage, baseOpts, tr, u, victim)
	}
	backoff := p.backoff
	if backoff <= 0 {
		backoff = DefaultRungRetryBackoff
	}
	for attempt := 0; ; attempt++ {
		actx := parent
		var cancel context.CancelFunc
		if p.timeout > 0 {
			actx, cancel = context.WithTimeout(parent, p.timeout)
		}
		viol, recheckErr, err := v.attemptCluster(actx, stage, baseOpts, tr, u, victim)
		if cancel != nil {
			cancel()
		}
		if err == nil || attempt >= p.retries || parent.Err() != nil ||
			!errors.Is(classifyClusterErr(err), ErrTimeout) {
			return viol, recheckErr, err
		}
		tr.Add(obs.CtrRungRetries, 1)
		wait := backoff << attempt
		select {
		case <-parent.Done():
			return nil, nil, parent.Err()
		case <-time.After(wait):
		}
	}
}

// stageCounter maps the rung that produced a cluster's result onto its
// fallback-ladder counter.
func stageCounter(s FallbackStage) obs.Counter {
	switch s {
	case StageReduced:
		return obs.CtrFallbackReduced
	case StageRegularized:
		return obs.CtrFallbackRegularized
	case StageDirectMNA:
		return obs.CtrFallbackDirectMNA
	case StageScreened:
		return obs.CtrScreenedRung0
	default:
		return obs.CtrFallbackUnverified
	}
}

// screenCluster evaluates the rung-0 analytic bound for one cluster and
// decides whether it clears the noise margin with the configured safety
// factor. Any failure — a degenerate cluster the bound refuses to state, a
// characterization error, an injected or genuine panic — degrades to
// (0, false): the cluster simply pays for the full ladder, exactly as if
// the screen did not exist. The screen deliberately does not consult
// v.faultHook (that hook drives ladder-shape tests which pin rung
// semantics); the process-global fault-injection registry fires with the
// "screened" stage so rung 0 participates in panic-isolation coverage.
func (v *Verifier) screenCluster(u clusterUnit, victim string, tr *obs.Trace) (bound float64, cleared bool) {
	defer func() {
		if r := recover(); r != nil {
			bound, cleared = 0, false
		}
	}()
	if herr := faultinject.FireCluster(victim, StageScreened.String()); herr != nil {
		return 0, false
	}
	tr.Add(obs.CtrScreenBoundEvals, 1)
	b, err := analytic.BoundCluster(u.par, u.cl, analytic.BoundOptions{
		Model:     v.cfg.Model.kind(),
		FixedOhms: v.cfg.FixedOhms,
		Vdd:       Vdd,
	})
	if err != nil {
		return 0, false
	}
	margin := v.cfg.GlitchThresholdFrac * Vdd
	if b*(1+v.cfg.ScreenSafetyFactor) < margin {
		return b, true
	}
	if b < margin {
		tr.Add(obs.CtrScreenNearThreshold, 1)
	}
	return 0, false
}

// attemptCluster tries one ladder rung: both glitch polarities, threshold
// classification, and (when configured) the transistor-level recheck. A
// panic anywhere inside — linear algebra included — is recovered into an
// ErrPanic-wrapped failure. A nil violation with nil error means the victim
// is clean at this threshold.
func (v *Verifier) attemptCluster(ctx context.Context, stage FallbackStage, baseOpts glitch.Options,
	tr *obs.Trace, u clusterUnit, victim string) (viol *Violation, recheckErr error, err error) {
	cl := u.cl
	defer func() {
		if r := recover(); r != nil {
			viol, recheckErr = nil, nil
			err = fmt.Errorf("%w: %v", ErrPanic, r)
		}
	}()
	if v.faultHook != nil {
		if herr := v.faultHook(victim, stage); herr != nil {
			return nil, nil, herr
		}
	}
	// The process-global fault-injection registry (internal/faultinject):
	// nil-hook cost is one atomic load; an injected panic lands in the
	// recover above exactly like a numerics blowup would.
	if herr := faultinject.FireCluster(victim, stage.String()); herr != nil {
		return nil, nil, herr
	}
	opts := baseOpts
	opts.Trace = tr
	switch stage {
	case StageRegularized:
		opts.Gmin = regularizedGmin
		opts.OrderFactor = 3 // half the default 6·ports
	case StageDirectMNA:
		opts.DirectMNA = true
	}
	eng := glitch.NewEngine(u.par, opts)
	worst := Violation{Victim: victim}
	// Both polarities in one pass: the reduction and the prepared
	// diagonalization are shared, and (pattern permitting) the two
	// transients advance as one multi-RHS sweep. Bit-identical to the
	// historical one-polarity-at-a-time loop.
	rres, fres, aerr := eng.AnalyzeGlitchPairContext(ctx, cl)
	if aerr != nil {
		return nil, nil, fmt.Errorf("xtverify: victim %s: %w", victim, aerr)
	}
	for _, res := range []*glitch.Result{rres, fres} {
		frac := res.PeakV / Vdd
		if frac < 0 {
			frac = -frac
		}
		if frac > worst.FracVdd {
			worst.FracVdd = frac
			worst.PeakV = res.PeakV
			worst.Aggressors = res.ActiveAggressors
		}
	}
	if worst.FracVdd < v.cfg.GlitchThresholdFrac {
		return nil, nil, nil
	}
	for _, r := range u.des.Nets[cl.Victim].Receivers {
		if r.Cell.Sequential {
			worst.LatchInput = true
			break
		}
	}
	// Noise-margin classification: does any receiver amplify the glitch
	// past its unity-gain corner?
	heldLow := worst.PeakV > 0
	for _, r := range u.des.Nets[cl.Victim].Receivers {
		vtc, verr := cells.CharacterizeVTC(r.Cell)
		if verr != nil {
			return nil, nil, fmt.Errorf("xtverify: VTC of %s: %w", r.Cell.Name, verr)
		}
		if vtc.GlitchPropagates(worst.PeakV, heldLow) {
			worst.Propagates = true
			break
		}
	}
	if v.cfg.TransistorRecheck {
		// Second-pass audit (the paper's future-work extension): confirm
		// the flagged violation at transistor level in its worst polarity.
		ref, rerr := eng.SPICEGlitch(cl, worst.PeakV > 0, true)
		if rerr != nil {
			recheckErr = fmt.Errorf("xtverify: transistor recheck of %s: %w", victim, rerr)
		} else {
			worst.ConfirmedPeakV = ref.PeakV
			frac := ref.PeakV / Vdd
			if frac < 0 {
				frac = -frac
			}
			worst.Confirmed = frac >= v.cfg.GlitchThresholdFrac
		}
	}
	return &worst, recheckErr, nil
}

// classifyClusterErr maps internal-layer failures onto the package's typed
// sentinels so ladder attempts carry a stable, matchable cause.
func classifyClusterErr(err error) error {
	switch {
	case errors.Is(err, context.Canceled):
		// Parent-context cancellation — a client disconnect, a daemon
		// drain, the engine's own fail-fast cancel — is not a deadline:
		// the cluster never got its time budget, so it must not be
		// reported (or retried) as a timeout.
		return fmt.Errorf("%w: %v", ErrCanceled, err)
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %v", ErrTimeout, err)
	case errors.Is(err, ErrPanic):
		return err
	case errors.Is(err, sympvl.ErrNotSPD),
		errors.Is(err, sympvl.ErrNoPortCoupling),
		errors.Is(err, sympvl.ErrEmptySystem),
		errors.Is(err, romsim.ErrUnstableModel):
		return fmt.Errorf("%w: %v", ErrReduction, err)
	case errors.Is(err, romsim.ErrNewtonDiverged):
		return fmt.Errorf("%w: %v", ErrNewtonDiverged, err)
	default:
		return err
	}
}
