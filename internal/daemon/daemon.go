// Package daemon implements the xtverifyd verification service: a
// long-running HTTP/JSON front end over xtverify.Verifier.RunContext with
// bounded admission control, per-job deadlines, client-disconnect
// cancellation, graceful drain, and live metrics.
//
// Jobs are synchronous: one POST /v1/verify request is one verification
// run, so the request context is the job context — a disconnected client
// cancels its job for free, and http.Server.Shutdown draining in-flight
// requests drains in-flight jobs.
//
// Admission is a two-level bound: at most MaxConcurrent jobs run at once
// (a channel semaphore) and at most MaxQueue more may wait for a slot.
// Beyond that the daemon sheds load with 429 and a Retry-After estimated
// from an EWMA of recent job durations — overload degrades to fast,
// honest rejections, never to an unbounded goroutine pile-up.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xtverify"
	"xtverify/internal/deflite"
	"xtverify/internal/design"
	"xtverify/internal/dsp"
	"xtverify/internal/extract"
)

// Options configures a Server. The zero value is usable: defaults are
// filled in by New.
type Options struct {
	// Engine is the base verification config applied to every job before
	// per-request overrides. Its ROMCacheCap sizes the server's shared
	// in-memory ROM cache and its ROMStore, when non-nil, backs that cache
	// on disk across restarts. Its SharedROMCache and Collector fields are
	// managed by the server and must be left nil.
	Engine xtverify.Config
	// MaxConcurrent bounds simultaneously running jobs (default 2).
	MaxConcurrent int
	// MaxQueue bounds jobs waiting for a slot beyond the running ones
	// (default 8). Requests arriving past the bound get 429 + Retry-After.
	MaxQueue int
	// DefaultJobTimeout is the per-job deadline when a request does not
	// set timeout_ms (default 2m). MaxJobTimeout clamps requested
	// deadlines (default 10m).
	DefaultJobTimeout time.Duration
	MaxJobTimeout     time.Duration
	// ReportCacheCap bounds the completed-job report cache (entries,
	// oldest-evicted; default 32). Cached entries serve repeat /v1/verify
	// requests for the same design and canonical config without re-running,
	// and anchor /v1/reverify deltas by job id.
	ReportCacheCap int
	// Logf receives one line per job and lifecycle event (default: drop).
	Logf func(format string, args ...any)
}

// Server is the daemon state: shared caches, admission bookkeeping and
// accumulated metrics. Create with New, serve via Handler.
type Server struct {
	opts  Options
	cache *xtverify.ROMCache
	mux   *http.ServeMux

	sem      chan struct{} // running-job slots
	waiting  atomic.Int64  // jobs blocked on sem
	draining atomic.Bool
	jobs     sync.WaitGroup

	accepted  atomic.Uint64
	rejected  atomic.Uint64 // 429: queue full
	completed atomic.Uint64
	failed    atomic.Uint64
	canceled  atomic.Uint64 // client disconnect or drain
	timedOut  atomic.Uint64 // job deadline exceeded

	ewmaNanos atomic.Int64 // smoothed job duration for Retry-After

	mu     sync.Mutex
	totals map[string]int64 // engine counters accumulated across jobs

	// Completed-job report cache (reverify.go): jobs by id for delta
	// anchoring, verify jobs additionally by (design, canonical config) key
	// for repeat-request hits, evicted oldest-first at ReportCacheCap.
	jobSeq     atomic.Uint64
	reportHits atomic.Uint64
	cacheMu    sync.Mutex
	byID       map[string]*cachedJob
	byKey      map[string]*cachedJob
	idOrder    []string
}

// New returns a Server with defaults filled in and routes registered.
func New(opts Options) *Server {
	if opts.MaxConcurrent <= 0 {
		opts.MaxConcurrent = 2
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = 8
	}
	if opts.DefaultJobTimeout <= 0 {
		opts.DefaultJobTimeout = 2 * time.Minute
	}
	if opts.MaxJobTimeout <= 0 {
		opts.MaxJobTimeout = 10 * time.Minute
	}
	if opts.ReportCacheCap <= 0 {
		opts.ReportCacheCap = 32
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	s := &Server{
		opts:   opts,
		cache:  xtverify.NewROMCache(opts.Engine.ROMCacheCap),
		sem:    make(chan struct{}, opts.MaxConcurrent),
		totals: make(map[string]int64),
		byID:   make(map[string]*cachedJob),
		byKey:  make(map[string]*cachedJob),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/verify", s.handleVerify)
	s.mux.HandleFunc("/v1/reverify", s.handleReverify)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain flips the server into draining mode: /healthz turns 503 so
// load balancers stop routing here, and new jobs are refused. In-flight
// jobs keep running.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.opts.Logf("daemon: draining (new jobs refused)")
	}
}

// Drain blocks until every in-flight job has finished or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() { s.jobs.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("daemon: drain: %w", ctx.Err())
	}
}

// VerifyRequest is the POST /v1/verify body. Exactly one of DSP or DEF
// selects the design; the remaining fields override the daemon's base
// engine config for this job only.
type VerifyRequest struct {
	// DSP generates the synthetic design; zero fields take the
	// paper-scale defaults (seed always applies).
	DSP *DSPRequest `json:"dsp,omitempty"`
	// DEF is an inline DEF netlist as produced by WriteDEF.
	DEF string `json:"def,omitempty"`
	// Stream runs the job through bounded-memory streaming ingest: clusters
	// are verified while the DEF is still being parsed, and the report is
	// byte-identical to a materialized run (so the report cache is shared
	// between the two). Only valid with an inline DEF design, and not
	// combinable with timing_windows. A streamed job can still anchor a
	// reverify with a def delta, which then recomputes in full instead of
	// splicing; a repair delta against it answers 400.
	Stream bool `json:"stream,omitempty"`

	Model               string  `json:"model,omitempty"` // fixed | library | nonlinear
	FixedOhms           float64 `json:"fixed_ohms,omitempty"`
	CapRatioThreshold   float64 `json:"cap_ratio_threshold,omitempty"`
	GlitchThresholdFrac float64 `json:"glitch_threshold_frac,omitempty"`
	TimingWindows       bool    `json:"timing_windows,omitempty"`
	// LogicCorrelation is refused for dsp designs: they are canonicalized
	// through DEF, which does not carry the generator's Q/QN pairs.
	LogicCorrelation bool `json:"logic_correlation,omitempty"`
	// NoScreen disables the rung-0 analytic screen for this job: every
	// cluster goes through reduction and transient simulation.
	NoScreen bool `json:"no_screen,omitempty"`
	// ScreenSafetyFactor overrides the engine's screening safety factor
	// (0 = server default).
	ScreenSafetyFactor float64 `json:"screen_safety_factor,omitempty"`
	// TimeoutMS is the per-job deadline in milliseconds (0 = server
	// default; clamped to the server maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// DSPRequest mirrors the synthetic DSP generator knobs.
type DSPRequest struct {
	Seed                  int64   `json:"seed"`
	Channels              int     `json:"channels,omitempty"`
	TracksPerChannel      int     `json:"tracks_per_channel,omitempty"`
	ChannelLengthUM       float64 `json:"channel_length_um,omitempty"`
	BusFraction           float64 `json:"bus_fraction,omitempty"`
	LatchFraction         float64 `json:"latch_fraction,omitempty"`
	ComplementaryFraction float64 `json:"complementary_fraction,omitempty"`
	ClockSpines           int     `json:"clock_spines,omitempty"`
}

// VerifyResponse is the successful job result. ReportText is rendered
// without the diagnostics block, so for a given design and config it is
// byte-identical run to run — cold cache, warm cache, or recomputed after
// cache corruption.
type VerifyResponse struct {
	// JobID identifies this completed job in the daemon's report cache; pass
	// it as base_job_id to POST /v1/reverify to verify an ECO delta
	// incrementally against this result.
	JobID string `json:"job_id"`
	// Cached marks a response served from the report cache: an earlier job
	// already verified this exact design under this canonical config, so the
	// daemon returns its (byte-identical) report without re-running. JobID
	// and WallMS are the original job's.
	Cached     bool             `json:"cached,omitempty"`
	ReportText string           `json:"report_text"`
	Violations int              `json:"violations"`
	Clusters   int              `json:"clusters"`
	Verified   int              `json:"verified"`
	Screened   int              `json:"screened"`
	Degraded   int              `json:"degraded"`
	Unverified int              `json:"unverified"`
	WallMS     float64          `json:"wall_ms"`
	Counters   map[string]int64 `json:"counters,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

const maxRequestBytes = 64 << 20 // inline DEF can be large, but bounded

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "")
	_ = enc.Encode(v)
}

// jobTimeout resolves a request's timeout_ms: the server default when it
// is unset, and never more than MaxJobTimeout. It compares in milliseconds
// before converting, because time.Duration(ms) * time.Millisecond overflows
// above about 9.2·10¹² ms.
func (s *Server) jobTimeout(ms int64) time.Duration {
	timeout := s.opts.DefaultJobTimeout
	if ms > 0 {
		timeout = s.opts.MaxJobTimeout
		if ms <= s.opts.MaxJobTimeout.Milliseconds() {
			timeout = time.Duration(ms) * time.Millisecond
		}
	}
	return min(timeout, s.opts.MaxJobTimeout)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "draining", "jobs_running": len(s.sem),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "jobs_running": len(s.sem),
	})
}

// MetricsBody is the /metrics response: daemon job accounting plus the
// shared ROM cache, persistent store and accumulated engine counters
// (including cache_corrupt_discarded and rung_retries).
type MetricsBody struct {
	Jobs struct {
		Accepted      uint64 `json:"accepted"`
		RejectedQueue uint64 `json:"rejected_queue_full"`
		Completed     uint64 `json:"completed"`
		Failed        uint64 `json:"failed"`
		Canceled      uint64 `json:"canceled"`
		TimedOut      uint64 `json:"timed_out"`
		Running       int    `json:"running"`
		Waiting       int64  `json:"waiting"`
	} `json:"jobs"`
	ROMCache struct {
		Hits        uint64 `json:"hits"`
		Misses      uint64 `json:"misses"`
		Evictions   uint64 `json:"evictions"`
		BackingHits uint64 `json:"backing_hits"`
	} `json:"rom_cache"`
	ReportCache struct {
		Entries int    `json:"entries"`
		Hits    uint64 `json:"hits"`
	} `json:"report_cache"`
	ROMStore       *xtverify.ROMStoreStats `json:"rom_store,omitempty"`
	EngineCounters map[string]int64        `json:"engine_counters"`
	Draining       bool                    `json:"draining"`
}

// Metrics returns the current metrics body (also served at /metrics).
func (s *Server) Metrics() MetricsBody {
	var m MetricsBody
	m.Jobs.Accepted = s.accepted.Load()
	m.Jobs.RejectedQueue = s.rejected.Load()
	m.Jobs.Completed = s.completed.Load()
	m.Jobs.Failed = s.failed.Load()
	m.Jobs.Canceled = s.canceled.Load()
	m.Jobs.TimedOut = s.timedOut.Load()
	m.Jobs.Running = len(s.sem)
	m.Jobs.Waiting = s.waiting.Load()
	m.ROMCache.Hits, m.ROMCache.Misses = s.cache.Stats()
	m.ROMCache.Evictions = s.cache.Evictions()
	m.ROMCache.BackingHits = s.cache.BackingHits()
	s.cacheMu.Lock()
	m.ReportCache.Entries = len(s.byID)
	s.cacheMu.Unlock()
	m.ReportCache.Hits = s.reportHits.Load()
	if s.opts.Engine.ROMStore != nil {
		st := s.opts.Engine.ROMStore.Stats()
		m.ROMStore = &st
	}
	m.EngineCounters = make(map[string]int64)
	s.mu.Lock()
	for k, v := range s.totals {
		m.EngineCounters[k] = v
	}
	s.mu.Unlock()
	m.Draining = s.draining.Load()
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// retryAfterSeconds estimates, in whole seconds, when a slot is likely to
// free up: the smoothed job duration scaled by queue depth over parallelism,
// rounded up and clamped to [1, 120]. The arithmetic is floating-point on
// purpose: the integer-duration form this replaces could truncate toward
// zero (sub-second EWMA, depth below MaxConcurrent) before the header
// rounding ever saw the value, and could overflow the EWMA × depth product
// outright — and "Retry-After: 0" is an invitation to hammer an overloaded
// server. The floor is the guarantee: the header is never less than 1.
func (s *Server) retryAfterSeconds() int {
	ewma := float64(s.ewmaNanos.Load())
	depth := float64(s.waiting.Load() + 1)
	sec := math.Ceil(ewma * depth / float64(s.opts.MaxConcurrent) / float64(time.Second))
	if !(sec > 1) { // NaN-proof: any non-positive or unordered estimate floors to 1
		return 1
	}
	if sec > 120 {
		return 120
	}
	return int(sec)
}

func (s *Server) observeDuration(d time.Duration) {
	const alpha = 0.3
	for {
		old := s.ewmaNanos.Load()
		var next int64
		if old == 0 {
			next = int64(d)
		} else {
			next = int64(alpha*float64(d) + (1-alpha)*float64(old))
		}
		if s.ewmaNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// admit reserves a running-job slot. It returns a non-nil release when
// admitted; otherwise an HTTP status explaining the rejection.
func (s *Server) admit(ctx context.Context) (release func(), status int) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0
	default:
	}
	if s.waiting.Add(1) > int64(s.opts.MaxQueue) {
		s.waiting.Add(-1)
		return nil, http.StatusTooManyRequests
	}
	defer s.waiting.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, 0
	case <-ctx.Done():
		// Client gave up while queued; 499 is the conventional
		// client-closed-request status (nothing will read it anyway).
		return nil, 499
	}
}

// decodeJob applies the checks every job request shares — POST only, no new
// jobs while draining, a bounded body (413 past maxRequestBytes) strictly
// decoded into req — and answers a failed check itself. It reports whether
// the request survived.
func (s *Server) decodeJob(w http.ResponseWriter, r *http.Request, req any) bool {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"POST only"})
		return false
	}
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{"server draining"})
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errorResponse{"bad request: " + err.Error()})
		return false
	}
	return true
}

// serveJob runs one job through admission: it sheds the job with 429 and a
// Retry-After when the queue is full, holds a running slot and the drain
// wait group while run executes under the job deadline, and accounts for
// the outcome. On success done writes the response body; a client that went
// away gets none, a missed deadline gets 504, and any other failure gets the
// status run returned. what names the job kind in log lines.
func (s *Server) serveJob(w http.ResponseWriter, r *http.Request, what string, timeoutMS int64,
	run func(ctx context.Context) (status int, err error), done func(wall time.Duration)) {
	release, status := s.admit(r.Context())
	if release == nil {
		if status == http.StatusTooManyRequests {
			s.rejected.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			writeJSON(w, status, errorResponse{"queue full, retry later"})
		} else {
			s.canceled.Add(1)
		}
		return
	}
	s.jobs.Add(1)
	defer s.jobs.Done()
	defer release()
	s.accepted.Add(1)

	ctx, cancel := context.WithTimeout(r.Context(), s.jobTimeout(timeoutMS))
	defer cancel()

	start := time.Now()
	errStatus, err := run(ctx)
	wall := time.Since(start)

	switch {
	case err == nil:
		s.completed.Add(1)
		s.observeDuration(wall)
		done(wall)
	case r.Context().Err() != nil:
		// Client disconnected (or the whole listener is shutting down):
		// the job was canceled on their behalf; nobody reads the response.
		s.canceled.Add(1)
		s.opts.Logf("daemon: %s canceled by client after %v", what, wall.Round(time.Millisecond))
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		s.timedOut.Add(1)
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{"job deadline exceeded: " + err.Error()})
	default:
		s.failed.Add(1)
		s.opts.Logf("daemon: %s failed after %v: %v", what, wall.Round(time.Millisecond), err)
		writeJSON(w, errStatus, errorResponse{err.Error()})
	}
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req VerifyRequest
	if !s.decodeJob(w, r, &req) {
		return
	}
	if (req.DSP == nil) == (req.DEF == "") {
		writeJSON(w, http.StatusBadRequest, errorResponse{"exactly one of dsp or def is required"})
		return
	}
	cfg, badField := s.jobConfig(&req)
	if badField != "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{"bad field: " + badField})
		return
	}
	// Repeat request? The cache key pairs the design input with the full
	// canonical config, so two jobs share a report only when every
	// content-affecting knob matches — and then the reports are provably
	// byte-identical, making the cached copy indistinguishable from a rerun.
	cacheKey := designKeyFor(&req) + "\x00" + cfg.CanonicalConfigKey()
	if resp, ok := s.lookupReport(cacheKey); ok {
		s.reportHits.Add(1)
		s.opts.Logf("daemon: job served from report cache (%s)", resp.JobID)
		writeJSON(w, http.StatusOK, resp)
		return
	}

	var (
		resp *VerifyResponse
		art  *jobArtifacts
	)
	s.serveJob(w, r, "job", req.TimeoutMS, func(ctx context.Context) (status int, err error) {
		resp, art, status, err = s.runJob(ctx, &req, cfg)
		return status, err
	}, func(wall time.Duration) {
		resp.WallMS = float64(wall) / float64(time.Millisecond)
		if resp.Unverified > 0 {
			// Unverified clusters mark transient trouble (timeouts, faults,
			// overload); serving such a report from cache would pin the
			// failure long after the condition cleared. The job still
			// anchors reverify deltas by id — the splice recomputes
			// unverified clusters — but repeat requests re-run.
			cacheKey = ""
		}
		resp.JobID = s.storeReport(cacheKey, cfg, art, resp)
		s.opts.Logf("daemon: job %s done in %v: %d violations, %d clusters", resp.JobID, wall.Round(time.Millisecond), resp.Violations, resp.Clusters)
		writeJSON(w, http.StatusOK, resp)
	})
}

// jobConfig builds the per-job engine config: base options (the store
// included), shared cache, fresh collector, then request overrides.
func (s *Server) jobConfig(req *VerifyRequest) (xtverify.Config, string) {
	cfg := s.opts.Engine
	cfg.SharedROMCache = s.cache
	cfg.Collector = xtverify.NewMetricsCollector()
	switch strings.ToLower(req.Model) {
	case "":
	case "fixed":
		cfg.Model = xtverify.FixedResistance
	case "library":
		cfg.Model = xtverify.TimingLibrary
	case "nonlinear":
		cfg.Model = xtverify.NonlinearCellModel
	default:
		return cfg, "model"
	}
	if req.FixedOhms < 0 || req.CapRatioThreshold < 0 || req.GlitchThresholdFrac < 0 ||
		req.TimeoutMS < 0 || req.ScreenSafetyFactor < 0 {
		return cfg, "negative value"
	}
	if req.DSP != nil {
		if bad := req.DSP.outOfRange(); bad != "" {
			return cfg, bad
		}
	}
	if req.FixedOhms > 0 {
		cfg.FixedOhms = req.FixedOhms
	}
	if req.CapRatioThreshold > 0 {
		cfg.CapRatioThreshold = req.CapRatioThreshold
	}
	if req.GlitchThresholdFrac > 0 {
		cfg.GlitchThresholdFrac = req.GlitchThresholdFrac
	}
	if req.TimingWindows {
		cfg.UseTimingWindows = true
	}
	if req.LogicCorrelation {
		if req.DSP != nil {
			// DSP jobs are canonicalized through DEF-lite (see runJob), which
			// does not carry the generator's Q/QN pairs: the correlation would
			// silently see none.
			return cfg, "logic_correlation (dsp designs are canonicalized through DEF, which does not carry their Q/QN pairs)"
		}
		cfg.UseLogicCorrelation = true
	}
	if req.NoScreen {
		cfg.DisableScreening = true
	}
	if req.ScreenSafetyFactor > 0 {
		cfg.ScreenSafetyFactor = req.ScreenSafetyFactor
	}
	if req.Stream {
		if req.DEF == "" {
			// DSP jobs are canonicalized through a materialized DEF round
			// trip (see runJob), so streaming them buys nothing.
			return cfg, "stream (only valid with an inline def design)"
		}
		if cfg.UseTimingWindows {
			return cfg, "stream (incompatible with timing_windows)"
		}
		cfg.StreamIngest = true
	}
	return cfg, ""
}

// runJob builds the verifier and runs it under ctx. The returned int is
// the HTTP status to use when err is non-nil and not a cancellation.
func (s *Server) runJob(ctx context.Context, req *VerifyRequest, cfg xtverify.Config) (*VerifyResponse, *jobArtifacts, int, error) {
	var (
		v   *xtverify.Verifier
		err error
	)
	if req.DEF != "" {
		v, err = xtverify.NewVerifierFromDEF(strings.NewReader(req.DEF), cfg)
		if err != nil {
			return nil, nil, http.StatusBadRequest, fmt.Errorf("parse def: %w", err)
		}
	} else {
		// DSP jobs are canonicalized through one DEF round trip before
		// verification. A repair's echo and any inline DEF delta against
		// this job are DEF text, and a cold verify of either must reproduce
		// the splice bit for bit — but a DSP-direct design differs from its
		// DEF parse in low-order parasitic bits (the generator's micron
		// arithmetic rounds differently from the DEF parser's DBU
		// division). DEF-to-DEF parses are exactly stable. The generated
		// design is written straight to DEF: a verifier built from it would
		// extract the whole chip only to be thrown away.
		gen, err := dsp.Generate(resolveDSP(req.DSP))
		if err != nil {
			return nil, nil, http.StatusBadRequest, fmt.Errorf("generate design: %w", err)
		}
		var sb strings.Builder
		if err := deflite.Write(&sb, gen); err != nil {
			return nil, nil, http.StatusInternalServerError, fmt.Errorf("canonicalize design: %w", err)
		}
		v, err = xtverify.NewVerifierFromDEF(strings.NewReader(sb.String()), cfg)
		if err != nil {
			return nil, nil, http.StatusInternalServerError, fmt.Errorf("reparse canonical def: %w", err)
		}
	}

	rep, err := v.RunContext(ctx)
	s.foldCounters(cfg.Collector)
	if err != nil {
		var pe *deflite.ParseError
		var fe *extract.FrontierError
		var be *extract.PieceBudgetError
		var ne *design.NetError
		if errors.As(err, &pe) || errors.As(err, &fe) || errors.As(err, &be) || errors.As(err, &ne) {
			// A streamed job parses, validates and extracts its DEF during
			// the run, so malformed or oversized input surfaces here rather
			// than at construction: still a 400.
			return nil, nil, http.StatusBadRequest, fmt.Errorf("parse def: %w", err)
		}
		return nil, nil, http.StatusInternalServerError, err
	}
	resp, err := makeResponse(rep)
	if err != nil {
		return nil, nil, http.StatusInternalServerError, err
	}
	return resp, &jobArtifacts{verifier: v, report: rep}, 0, nil
}

// foldCounters merges one job's engine counters into the daemon totals —
// called whether or not the run finished, since partial work is still work
// observed.
func (s *Server) foldCounters(col *xtverify.MetricsCollector) {
	if snap := col.Snapshot(); snap != nil {
		s.mu.Lock()
		for k, n := range snap.Counters {
			s.totals[k] += n
		}
		s.mu.Unlock()
	}
}

// makeResponse freezes a completed report into the wire response. The text
// is rendered without the diagnostics block so report_text is deterministic:
// wall times and cache statistics are run-dependent and live in the
// structured fields instead. The report's diagnostics are restored before
// returning (the report cache keeps them for reverify anchoring).
func makeResponse(rep *xtverify.Report) (*VerifyResponse, error) {
	diag := rep.Diagnostics
	resp := &VerifyResponse{
		Violations: len(rep.Violations),
	}
	if diag != nil {
		resp.Clusters = len(diag.Clusters)
		resp.Verified = diag.Verified
		resp.Degraded = diag.Degraded
		resp.Unverified = diag.Unverified
		if diag.Metrics != nil {
			resp.Counters = diag.Metrics.Counters
		}
	}
	if rep.Screening != nil {
		resp.Screened = rep.Screening.Screened
	}
	rep.Diagnostics = nil
	var sb strings.Builder
	err := rep.WriteText(&sb)
	rep.Diagnostics = diag
	if err != nil {
		return nil, fmt.Errorf("render report: %w", err)
	}
	resp.ReportText = sb.String()
	return resp, nil
}
