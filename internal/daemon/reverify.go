// Incremental ECO re-verification over HTTP: the report cache and the
// /v1/reverify endpoint.
//
// Every completed job is cached with its verifier, full report and response
// under a deterministic job id. A repeat POST /v1/verify for the same design
// input and canonical engine config is served straight from the cache — the
// byte-identity contract makes the cached report indistinguishable from a
// rerun. A POST /v1/reverify anchors an ECO delta (a full edited DEF, or a
// repair the daemon applies to the cached base design itself) to a base job
// id and runs xtverify's incremental splice: only clusters the edit changed
// are recomputed, and the response is byte-identical to a cold verify of the
// edited design. An evicted base is a 404 — its per-request config went with
// it, and running under a different config would be a different verification,
// not a delta. Any other reason the splice cannot be trusted — cached state
// unusable, config drift — degrades to a full recompute of the edited design
// under the base's config, flagged in the response but never wrong.
package daemon

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"xtverify"
	"xtverify/internal/cells"
)

// jobArtifacts is what a completed run leaves behind for the report cache.
type jobArtifacts struct {
	verifier *xtverify.Verifier
	report   *xtverify.Report // diagnostics intact
}

// cachedJob is one completed job held for repeat requests and reverify
// anchoring. The reverify base index is derived lazily — most jobs are never
// used as a reverify base, and indexing signs every cluster.
type cachedJob struct {
	id       string
	cacheKey string // "" for reverify-produced jobs (never served on /v1/verify)
	cfg      xtverify.Config
	verifier *xtverify.Verifier
	report   *xtverify.Report
	resp     VerifyResponse

	baseOnce sync.Once
	base     *xtverify.BaseRun
	baseErr  error
}

// baseRun returns the job's reverify index, built on first use. A streamed
// job has none: indexing re-reads the verifier's source, and its DEF reader
// was spent by the job's own run.
func (j *cachedJob) baseRun() (*xtverify.BaseRun, error) {
	j.baseOnce.Do(func() {
		if j.cfg.StreamIngest {
			j.baseErr = fmt.Errorf("%w: base job %s was streamed and its input is spent", xtverify.ErrBaseUnusable, j.id)
			return
		}
		j.base, j.baseErr = j.verifier.BaseRun(j.report)
	})
	return j.base, j.baseErr
}

// Size limits of a DSP request. At the largest channel and track counts,
// with the most clock spines, the generator's y coordinates reach about
// 1024·(1024·1.2 µm + 60 µm) + 64·1.2 µm ≈ 1.3·10⁶ µm, and x stays within
// the channel length: both far inside design.MaxCoordUM (10⁸ µm).
const (
	maxDSPChannels        = 1024
	maxDSPTracks          = 1024
	maxDSPChannelLengthUM = 1e5
	maxDSPClockSpines     = 64
)

// outOfRange names the first field of r outside its range, "" when every
// field is in range. Zero means the default; sizes are bounded by the
// limits above and fractions lie in [0, 1]. The daemon checks before
// generating anything.
func (r *DSPRequest) outOfRange() string {
	for _, f := range []struct {
		name     string
		val, max float64
	}{
		{"channels", float64(r.Channels), maxDSPChannels},
		{"tracks_per_channel", float64(r.TracksPerChannel), maxDSPTracks},
		{"channel_length_um", r.ChannelLengthUM, maxDSPChannelLengthUM},
		{"bus_fraction", r.BusFraction, 1},
		{"latch_fraction", r.LatchFraction, 1},
		{"complementary_fraction", r.ComplementaryFraction, 1},
		{"clock_spines", float64(r.ClockSpines), maxDSPClockSpines},
	} {
		if !(f.val >= 0 && f.val <= f.max) {
			return fmt.Sprintf("dsp.%s (must lie in [0, %g])", f.name, f.max)
		}
	}
	return ""
}

// resolveDSP applies the paper-scale defaults to a DSP request, exactly as
// the job runner builds the generator config — the design key must describe
// the design that would actually be generated.
func resolveDSP(req *DSPRequest) xtverify.DSPConfig {
	d := xtverify.DefaultDSPConfig()
	d.Seed = req.Seed
	if req.Channels > 0 {
		d.Channels = req.Channels
	}
	if req.TracksPerChannel > 0 {
		d.TracksPerChannel = req.TracksPerChannel
	}
	if req.ChannelLengthUM > 0 {
		d.ChannelLengthUM = req.ChannelLengthUM
	}
	if req.BusFraction > 0 {
		d.BusFraction = req.BusFraction
	}
	if req.LatchFraction > 0 {
		d.LatchFraction = req.LatchFraction
	}
	if req.ComplementaryFraction > 0 {
		d.ComplementaryFraction = req.ComplementaryFraction
	}
	if req.ClockSpines > 0 {
		d.ClockSpines = req.ClockSpines
	}
	return d
}

// designKeyFor canonicalizes the request's design input: the DEF text's hash,
// or the fully resolved DSP generator parameters (so an explicit default and
// an omitted field share a key).
func designKeyFor(req *VerifyRequest) string {
	if req.DEF != "" {
		sum := sha256.Sum256([]byte(req.DEF))
		return "def|" + hex.EncodeToString(sum[:])
	}
	d := resolveDSP(req.DSP)
	return fmt.Sprintf("dsp|%d|%d|%d|%g|%g|%g|%g|%g|%d",
		d.Seed, d.Channels, d.TracksPerChannel, d.ChannelLengthUM, d.TrackPitchUM,
		d.BusFraction, d.LatchFraction, d.ComplementaryFraction, d.ClockSpines)
}

// lookupReport serves a repeat request from the cache, if present.
func (s *Server) lookupReport(cacheKey string) (*VerifyResponse, bool) {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	j, ok := s.byKey[cacheKey]
	if !ok {
		return nil, false
	}
	resp := j.resp
	resp.Cached = true
	return &resp, true
}

// jobByID returns the cached job, or nil if evicted or never completed.
func (s *Server) jobByID(id string) *cachedJob {
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	return s.byID[id]
}

// storeReport registers a completed job in the report cache under a fresh
// job id (returned), evicting oldest-first past ReportCacheCap. cacheKey ""
// registers for reverify anchoring only — reverify results are deliberately
// not served on /v1/verify, so a cold verify of an edited design always
// actually runs (that cold run is what the identity contract is checked
// against).
func (s *Server) storeReport(cacheKey string, cfg xtverify.Config, art *jobArtifacts, resp *VerifyResponse) string {
	id := fmt.Sprintf("job-%d", s.jobSeq.Add(1))
	j := &cachedJob{
		id:       id,
		cacheKey: cacheKey,
		cfg:      cfg,
		verifier: art.verifier,
		report:   art.report,
	}
	j.resp = *resp
	j.resp.JobID = id
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	s.byID[id] = j
	if cacheKey != "" {
		s.byKey[cacheKey] = j
	}
	s.idOrder = append(s.idOrder, id)
	for len(s.idOrder) > s.opts.ReportCacheCap {
		old := s.idOrder[0]
		s.idOrder = s.idOrder[1:]
		if oj := s.byID[old]; oj != nil {
			delete(s.byID, old)
			if oj.cacheKey != "" && s.byKey[oj.cacheKey] == oj {
				delete(s.byKey, oj.cacheKey)
			}
		}
	}
	return id
}

// ReverifyRequest is the POST /v1/reverify body: a completed base job plus
// an ECO delta. Exactly one of DEF (the full edited design) or Repair (a fix
// the daemon applies to the cached base design) describes the edit. The
// job's engine config is inherited from the base job — a reverify under a
// different config is a different verification, not a delta.
type ReverifyRequest struct {
	// BaseJobID is the job_id of a completed /v1/verify or /v1/reverify
	// response.
	BaseJobID string `json:"base_job_id"`
	// DEF is the edited design as an inline DEF netlist.
	DEF string `json:"def,omitempty"`
	// Repair applies a repair to the base design server-side.
	Repair *RepairDelta `json:"repair,omitempty"`
	// TimeoutMS is the per-job deadline in milliseconds (0 = server
	// default; clamped to the server maximum).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// RepairDelta names a repair for the daemon to apply to the base design. The
// daemon re-cells the victim's first driver instance in a copy of the base
// job's design (Verifier.UpsizeDriver). On a tri-state bus that instance may
// not be the strongest driver, which is the one the repair advisor
// evaluated.
type RepairDelta struct {
	// Victim is the violating net whose driver is repaired.
	Victim string `json:"victim"`
	// Fix is the strategy; "upsize-driver" is the one fix the daemon applies
	// itself. Spacing and shielding change the routing, which a client
	// posts as an edited design in a def delta.
	Fix string `json:"fix"`
	// Cell names the replacement driver cell; empty picks the next stronger
	// same-kind cell from the library.
	Cell string `json:"cell,omitempty"`
}

// ReverifyResponse is the successful reverify result: the spliced report
// (byte-identical to a cold verify of the edited design) plus splice
// accounting.
type ReverifyResponse struct {
	VerifyResponse
	// ClustersReused and ClustersRecomputed account for the splice; on a
	// full recompute everything counts as recomputed.
	ClustersReused     int `json:"clusters_reused"`
	ClustersRecomputed int `json:"clusters_recomputed"`
	// FullRecompute marks a degraded splice: the base job was evicted or its
	// cached state unusable, so the edited design was verified from scratch.
	// The report is the same either way; only the work differs.
	FullRecompute bool `json:"full_recompute,omitempty"`
	// DEF echoes a repair delta's edited design as WriteDEF renders it, at
	// 1,000 DBU/µm. For a base on that grid (every dsp job, and every DEF
	// WriteDEF wrote) a cold verify of the echo reproduces the splice; a
	// client whose DEF is off the grid applies the edit to its own text.
	DEF string `json:"def,omitempty"`
}

func (s *Server) handleReverify(w http.ResponseWriter, r *http.Request) {
	var req ReverifyRequest
	if !s.decodeJob(w, r, &req) {
		return
	}
	if req.BaseJobID == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{"base_job_id is required"})
		return
	}
	if (req.DEF == "") == (req.Repair == nil) {
		writeJSON(w, http.StatusBadRequest, errorResponse{"exactly one of def or repair is required"})
		return
	}
	if req.TimeoutMS < 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{"bad field: timeout_ms"})
		return
	}

	base := s.jobByID(req.BaseJobID)
	if base == nil {
		// An evicted base takes its per-request config overrides with it, so
		// a "fresh run instead" here would silently verify under the server's
		// base engine config — a different verification, not a degraded
		// splice. Clients that want a cold run of the edited design have
		// /v1/verify.
		writeJSON(w, http.StatusNotFound, errorResponse{"unknown base job " + req.BaseJobID + " (evicted or never completed); POST /v1/verify to run the design cold"})
		return
	}
	if req.Repair != nil {
		// Only the checks that need no design run before admission; the
		// repair is applied to the base design inside it.
		if err := req.Repair.check(); err != nil {
			writeJSON(w, http.StatusBadRequest, errorResponse{err.Error()})
			return
		}
	}
	// base.cfg came from jobConfig, so it already carries the shared ROM
	// cache and store.
	cfg := base.cfg
	cfg.Collector = xtverify.NewMetricsCollector()
	// A reverify materializes the edited design whatever the base job did:
	// the job it leaves behind must be able to anchor repairs, which edit
	// the design in memory. StreamIngest is not part of the canonical
	// config, so clearing it cannot cause a mismatch.
	cfg.StreamIngest = false

	var (
		resp *ReverifyResponse
		art  *jobArtifacts
	)
	s.serveJob(w, r, "reverify", req.TimeoutMS, func(ctx context.Context) (status int, err error) {
		// Building the edited verifier fails only on the client's input: a
		// DEF that does not parse, or a repair the base design cannot take.
		var v2 *xtverify.Verifier
		if req.Repair == nil {
			v2, err = xtverify.NewVerifierFromDEF(strings.NewReader(req.DEF), cfg)
		} else {
			v2, err = base.verifier.UpsizeDriver(req.Repair.Victim, req.Repair.Cell, cfg)
		}
		switch {
		case errors.Is(err, xtverify.ErrStreamIngest):
			return http.StatusBadRequest, fmt.Errorf("repair: base job %s was streamed, so the daemon holds no design to edit; verify the design again without stream, or post a def delta", base.id)
		case err != nil:
			return http.StatusBadRequest, fmt.Errorf("edited design: %w", err)
		}
		if resp, art, status, err = s.runReverify(ctx, base, v2, cfg); err != nil {
			return status, err
		}
		if req.Repair != nil {
			var sb strings.Builder
			if err := v2.WriteDEF(&sb); err != nil {
				return http.StatusInternalServerError, fmt.Errorf("render repaired def: %w", err)
			}
			resp.DEF = sb.String()
		}
		return 0, nil
	}, func(wall time.Duration) {
		resp.WallMS = float64(wall) / float64(time.Millisecond)
		resp.JobID = s.storeReport("", cfg, art, &resp.VerifyResponse)
		s.opts.Logf("daemon: reverify %s of %s done in %v: %d reused, %d recomputed, %d violations",
			resp.JobID, req.BaseJobID, wall.Round(time.Millisecond),
			resp.ClustersReused, resp.ClustersRecomputed, resp.Violations)
		writeJSON(w, http.StatusOK, resp)
	})
}

// runReverify verifies the edited design v2, splicing against the base
// job's cached run when that can be trusted and recomputing from scratch
// when it cannot. Both paths return the same bytes for the same design; the
// splice only saves work.
func (s *Server) runReverify(ctx context.Context, base *cachedJob, v2 *xtverify.Verifier, cfg xtverify.Config) (*ReverifyResponse, *jobArtifacts, int, error) {
	var (
		rep   *xtverify.Report
		stats *xtverify.ReverifyStats
		err   error
	)
	// A base we cannot index (persisted-state faults, an incomplete run) or
	// splice against (config drift, foreign report) degrades to the full
	// recompute below — availability over cleverness, and the output is
	// identical either way.
	if br, berr := base.baseRun(); berr == nil {
		rep, stats, err = v2.ReverifyContext(ctx, br)
		if err != nil {
			if !errors.Is(err, xtverify.ErrConfigMismatch) && !errors.Is(err, xtverify.ErrBaseUnusable) {
				s.foldCounters(cfg.Collector)
				return nil, nil, http.StatusInternalServerError, err
			}
			rep, stats = nil, nil
		}
	}
	full := rep == nil
	if full {
		rep, err = v2.RunContext(ctx)
		if err != nil {
			s.foldCounters(cfg.Collector)
			return nil, nil, http.StatusInternalServerError, err
		}
	}
	s.foldCounters(cfg.Collector)
	vr, err := makeResponse(rep)
	if err != nil {
		return nil, nil, http.StatusInternalServerError, err
	}
	resp := &ReverifyResponse{VerifyResponse: *vr, FullRecompute: full}
	if stats != nil {
		resp.ClustersReused = stats.ClustersReused
		resp.ClustersRecomputed = stats.ClustersRecomputed
	} else {
		resp.ClustersRecomputed = vr.Clusters
	}
	return resp, &jobArtifacts{verifier: v2, report: rep}, 0, nil
}

// check rejects a delta whose fields alone make it inapplicable. It needs
// no design, so the handler runs it before admission.
func (rp *RepairDelta) check() error {
	if rp.Victim == "" {
		return fmt.Errorf("repair: victim is required")
	}
	if rp.Fix != "upsize-driver" {
		return fmt.Errorf("repair: unsupported fix %q (only upsize-driver is supported; post other edits as a def delta)", rp.Fix)
	}
	if rp.Cell != "" {
		if _, ok := cells.ByName(rp.Cell); !ok {
			return fmt.Errorf("repair: unknown cell %q", rp.Cell)
		}
	}
	return nil
}
