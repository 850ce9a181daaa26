package daemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"xtverify/internal/cells"
)

// TestRetryAfterSeconds is the regression table for the Retry-After
// arithmetic: the integer-duration form it replaces truncated toward zero
// (sub-second EWMA, depth below MaxConcurrent) and could overflow the
// EWMA x depth product. The header must never be 0 and never exceed 120.
func TestRetryAfterSeconds(t *testing.T) {
	cases := []struct {
		name    string
		ewma    int64 // nanoseconds
		waiting int64
		maxConc int
		want    int
	}{
		{"no history", 0, 0, 2, 1},
		{"sub-second ewma truncated to zero before the fix", int64(100 * time.Millisecond), 0, 4, 1},
		{"depth below parallelism", int64(time.Second), 0, 4, 1},
		{"exact one second", int64(time.Second), 3, 4, 1},
		{"moderate backlog", int64(2 * time.Second), 7, 4, 4},
		{"deep queue", int64(30 * time.Second), 0, 2, 15},
		{"long jobs clamp", int64(time.Hour), 100, 2, 120},
		{"overflow-prone product", math.MaxInt64, 1 << 40, 1, 120},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Options{MaxConcurrent: tc.maxConc})
			s.ewmaNanos.Store(tc.ewma)
			s.waiting.Store(tc.waiting)
			got := s.retryAfterSeconds()
			if got != tc.want {
				t.Errorf("retryAfterSeconds() = %d, want %d", got, tc.want)
			}
			if got < 1 || got > 120 {
				t.Errorf("retryAfterSeconds() = %d outside [1, 120]", got)
			}
		})
	}
}

// victims extracts the violations' net names from a report text, in report
// order.
func victims(reportText string) []string {
	var out []string
	for _, line := range strings.Split(reportText, "\n") {
		if strings.HasPrefix(line, "  ") && strings.Contains(line, " peak ") {
			out = append(out, strings.Fields(line)[0])
		}
	}
	return out
}

// firstVictim extracts the first violation's net name from a report text.
func firstVictim(t *testing.T, reportText string) string {
	t.Helper()
	vs := victims(reportText)
	if len(vs) == 0 {
		t.Fatalf("no violation line in report:\n%s", reportText)
	}
	return vs[0]
}

// postJSON posts any request body to a daemon path.
func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

func reverifyOK(t *testing.T, ts *httptest.Server, req *ReverifyRequest) ReverifyResponse {
	t.Helper()
	status, raw := postJSON(t, ts, "/v1/reverify", req)
	if status != http.StatusOK {
		t.Fatalf("POST /v1/reverify = %d: %s", status, raw)
	}
	var rr ReverifyResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		t.Fatalf("bad reverify body: %v\n%s", err, raw)
	}
	return rr
}

// TestReportCacheServesRepeats: an identical resubmission is served from the
// report cache — byte-identical text, the original job id, no second run.
func TestReportCacheServesRepeats(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	first := verifyOK(t, ts, tinyJob())
	if first.Cached {
		t.Fatal("first submission claims to be cached")
	}
	if first.JobID == "" {
		t.Fatal("completed job has no job_id")
	}
	second := verifyOK(t, ts, tinyJob())
	if !second.Cached {
		t.Fatal("identical resubmission not served from the report cache")
	}
	if second.JobID != first.JobID {
		t.Errorf("cached response job id %s, want original %s", second.JobID, first.JobID)
	}
	if second.ReportText != first.ReportText {
		t.Errorf("cached report differs from original:\n--- first ---\n%s--- second ---\n%s", first.ReportText, second.ReportText)
	}
	m := srv.Metrics()
	if m.Jobs.Completed != 1 {
		t.Errorf("completed = %d, want 1 (repeat must not re-run)", m.Jobs.Completed)
	}
	if m.ReportCache.Hits != 1 || m.ReportCache.Entries == 0 {
		t.Errorf("report cache %+v, want 1 hit and >=1 entry", m.ReportCache)
	}
}

// TestReportCacheConfigMiss is the aliasing regression: flipping any
// config-relevant request field must miss the cache — two jobs that differ
// in screening, thresholds or models never share a report.
func TestReportCacheConfigMiss(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if base := verifyOK(t, ts, tinyJob()); base.Cached {
		t.Fatal("first submission cached")
	}
	muts := map[string]func(*VerifyRequest){
		"cap_ratio_threshold":   func(r *VerifyRequest) { r.CapRatioThreshold = 0.05 },
		"fixed_ohms":            func(r *VerifyRequest) { r.FixedOhms = 700 },
		"glitch_threshold_frac": func(r *VerifyRequest) { r.GlitchThresholdFrac = 0.2 },
		"timing_windows":        func(r *VerifyRequest) { r.TimingWindows = true },
		"no_screen":             func(r *VerifyRequest) { r.NoScreen = true },
		"screen_safety_factor":  func(r *VerifyRequest) { r.ScreenSafetyFactor = 2.0 },
		"design seed":           func(r *VerifyRequest) { r.DSP.Seed = 78 },
	}
	for name, mut := range muts {
		t.Run(name, func(t *testing.T) {
			req := tinyJob()
			mut(req)
			if got := verifyOK(t, ts, req); got.Cached {
				t.Errorf("flipping %s aliased with the base job's cache entry", name)
			}
		})
	}
	// A dsp job refuses logic_correlation (DEF canonicalization drops the
	// Q/QN pairs), so that knob is flipped on an inline-DEF job instead.
	t.Run("logic_correlation", func(t *testing.T) {
		req := &VerifyRequest{DEF: tinyDEF(t), Model: "fixed", CapRatioThreshold: 0.03}
		if base := verifyOK(t, ts, req); base.Cached {
			t.Fatal("first inline-DEF submission cached")
		}
		req.LogicCorrelation = true
		if got := verifyOK(t, ts, req); got.Cached {
			t.Error("flipping logic_correlation aliased with the base job's cache entry")
		}
	})
}

// TestReverifyRoundTrip is the end-to-end ECO flow: verify, apply an
// upsize-driver repair via /v1/reverify, and check the splice accounting,
// the counters, and — the acceptance gate — byte-identity of the spliced
// report against a cold verify of the returned repaired DEF.
func TestReverifyRoundTrip(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	base := verifyOK(t, ts, tinyJob())
	if base.Violations == 0 {
		t.Fatal("base job has no violations; nothing to repair")
	}
	victim := firstVictim(t, base.ReportText)

	rr := reverifyOK(t, ts, &ReverifyRequest{
		BaseJobID: base.JobID,
		Repair:    &RepairDelta{Victim: victim, Fix: "upsize-driver"},
	})
	if rr.FullRecompute {
		t.Error("repair splice degraded to a full recompute")
	}
	if rr.ClustersReused == 0 {
		t.Errorf("single-driver upsize reused nothing: %+v", rr)
	}
	if rr.ClustersRecomputed == 0 {
		t.Errorf("a driver upsize must recompute at least the victim's cluster: %+v", rr)
	}
	if rr.DEF == "" {
		t.Fatal("repair reverify did not echo the synthesized DEF")
	}
	if rr.JobID == "" || rr.JobID == base.JobID {
		t.Errorf("reverify job id %q must be fresh (base %s)", rr.JobID, base.JobID)
	}

	// The identity gate: a cold verify of the repaired DEF (same config
	// overrides as the base job) must render the same bytes. Reverify
	// results are deliberately not report-cache-served, so this runs cold.
	coldReq := tinyJob()
	coldReq.DSP = nil
	coldReq.DEF = rr.DEF
	cold := verifyOK(t, ts, coldReq)
	if cold.Cached {
		t.Fatal("cold verify of the repaired DEF was served from cache — identity check is vacuous")
	}
	if cold.ReportText != rr.ReportText {
		t.Errorf("spliced report differs from cold verify of the repaired design:\n--- cold ---\n%s--- spliced ---\n%s",
			cold.ReportText, rr.ReportText)
	}

	m := srv.Metrics()
	if m.EngineCounters["reverify_jobs"] != 1 {
		t.Errorf("reverify_jobs = %d, want 1", m.EngineCounters["reverify_jobs"])
	}
	if m.EngineCounters["clusters_reused"] != int64(rr.ClustersReused) {
		t.Errorf("clusters_reused counter %d != response %d", m.EngineCounters["clusters_reused"], rr.ClustersReused)
	}
	if m.EngineCounters["clusters_recomputed"] != int64(rr.ClustersRecomputed) {
		t.Errorf("clusters_recomputed counter %d != response %d", m.EngineCounters["clusters_recomputed"], rr.ClustersRecomputed)
	}

	// The reverify result itself anchors further deltas: a second repair on
	// the spliced job must reuse most of the spliced run.
	second := verifyOK(t, ts, tinyJob())
	if !second.Cached {
		t.Error("base job fell out of the cache during the round trip")
	}
	chain := reverifyOK(t, ts, &ReverifyRequest{
		BaseJobID: rr.JobID,
		DEF:       rr.DEF, // no-op edit: everything should splice
	})
	if chain.FullRecompute || chain.ClustersRecomputed != 0 || chain.ClustersReused == 0 {
		t.Errorf("no-op delta on a reverify base: %+v, want all clusters reused", chain)
	}
	if chain.ReportText != rr.ReportText {
		t.Error("no-op delta changed the report")
	}

	// A repair on the repaired job: its base verifier was itself built by
	// editing a design in memory, and the chain must still splice and match
	// a cold verify of its echo.
	vs := victims(base.ReportText)
	if len(vs) < 2 {
		t.Fatalf("base job has %d violations, want 2 to chain repairs", len(vs))
	}
	rr2 := reverifyOK(t, ts, &ReverifyRequest{
		BaseJobID: rr.JobID,
		Repair:    &RepairDelta{Victim: vs[1], Fix: "upsize-driver"},
	})
	if rr2.FullRecompute || rr2.ClustersReused == 0 {
		t.Errorf("chained repair on a repaired job reused nothing: %+v", rr2)
	}
	coldReq.DEF = rr2.DEF
	cold2 := verifyOK(t, ts, coldReq)
	if cold2.Cached {
		t.Fatal("cold verify of the chained echo was served from cache")
	}
	if cold2.ReportText != rr2.ReportText {
		t.Errorf("chained splice differs from cold verify of its echo:\n--- cold ---\n%s--- spliced ---\n%s",
			cold2.ReportText, rr2.ReportText)
	}
}

// TestReverifyInlineDEF: a client-supplied edited DEF (not a server-side
// repair) splices against the base too.
func TestReverifyInlineDEF(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	base := verifyOK(t, ts, tinyJob())
	victim := firstVictim(t, base.ReportText)

	// Synthesize the edited design the same way a client with the base DEF
	// would: fetch the canonical DEF via a no-op repair... or simply apply
	// the repair locally through the same code path.
	rr := reverifyOK(t, ts, &ReverifyRequest{
		BaseJobID: base.JobID,
		Repair:    &RepairDelta{Victim: victim, Fix: "upsize-driver"},
	})
	inline := reverifyOK(t, ts, &ReverifyRequest{BaseJobID: base.JobID, DEF: rr.DEF})
	if inline.FullRecompute {
		t.Error("inline DEF splice degraded to full recompute")
	}
	if inline.ClustersReused == 0 {
		t.Errorf("inline DEF delta reused nothing: %+v", inline)
	}
	if inline.ReportText != rr.ReportText {
		t.Error("inline DEF and server-side repair of the same edit disagree")
	}
	if inline.DEF != "" {
		t.Error("inline DEF reverify echoed a DEF it did not synthesize")
	}
}

// offGridDEF rewrites a DEF written at 1,000 DBU/µm at 2,000 DBU/µm, with
// every coordinate v moved to 2v+1 and every width doubled: the same design
// shifted by half a nanometre, off WriteDEF's 1 nm grid.
func offGridDEF(t *testing.T, def string) string {
	t.Helper()
	const units = "UNITS DISTANCE MICRONS 1000 ;"
	if !strings.Contains(def, units) {
		t.Fatal("DEF is not at 1,000 DBU/µm")
	}
	def = strings.Replace(def, units, "UNITS DISTANCE MICRONS 2000 ;", 1)
	scale := func(tok string, off int) string {
		v, err := strconv.Atoi(tok)
		if err != nil {
			t.Fatalf("bad DBU token %q", tok)
		}
		return strconv.Itoa(2*v + off)
	}
	point := regexp.MustCompile(`\( (-?\d+) (-?\d+) \)`)
	def = point.ReplaceAllStringFunc(def, func(m string) string {
		f := strings.Fields(m)
		return "( " + scale(f[1], 1) + " " + scale(f[2], 1) + " )"
	})
	width := regexp.MustCompile(`METAL\d+ \d+`)
	return width.ReplaceAllStringFunc(def, func(m string) string {
		f := strings.Fields(m)
		return f[0] + " " + scale(f[1], 0)
	})
}

// upsizeComponent re-cells, in def's COMPONENTS section, the victim's first
// driver instance (the first pin group of its NETS line: DEF writers list
// drivers first) to the next stronger cell of its kind.
func upsizeComponent(t *testing.T, def, victim string) string {
	t.Helper()
	pin := regexp.MustCompile(`(?m)^- ` + regexp.QuoteMeta(victim) + ` \( (\S+) `).FindStringSubmatch(def)
	if pin == nil {
		t.Fatalf("no NETS line for %s", victim)
	}
	comp := regexp.MustCompile(`(?m)^(- ` + regexp.QuoteMeta(pin[1]) + `) (\S+)( \+ PLACED)`)
	m := comp.FindStringSubmatch(def)
	if m == nil {
		t.Fatalf("no COMPONENTS line for %s", pin[1])
	}
	cell, ok := cells.ByName(m[2])
	if !ok {
		t.Fatalf("unknown cell %s", m[2])
	}
	repl := cells.NextStronger(cell)
	if repl == nil {
		t.Fatalf("no cell stronger than %s", cell.Name)
	}
	return comp.ReplaceAllString(def, fmt.Sprintf("$1 %s$3", repl.Name))
}

// TestReverifyRepairOffGridBase: a repair edits the design the client
// posted, not a copy re-quantized to the echo's grid. The base DEF lies half
// a nanometre off WriteDEF's grid; the splice must reuse clusters and equal a
// cold verify of the client's own DEF with the driver's COMPONENTS line
// re-celled.
func TestReverifyRepairOffGridBase(t *testing.T) {
	def := offGridDEF(t, tinyDEF(t))
	_, ts := newTestServer(t, Options{})
	req := &VerifyRequest{DEF: def, Model: "fixed", CapRatioThreshold: 0.03}
	base := verifyOK(t, ts, req)
	victim := firstVictim(t, base.ReportText)
	rr := reverifyOK(t, ts, &ReverifyRequest{
		BaseJobID: base.JobID,
		Repair:    &RepairDelta{Victim: victim, Fix: "upsize-driver"},
	})
	if rr.FullRecompute || rr.ClustersReused == 0 {
		t.Errorf("repair on an off-grid base reused nothing: %+v", rr)
	}
	cold := verifyOK(t, ts, &VerifyRequest{DEF: upsizeComponent(t, def, victim), Model: req.Model,
		CapRatioThreshold: req.CapRatioThreshold})
	if cold.Cached {
		t.Fatal("cold verify of the client's edited DEF was served from cache")
	}
	if cold.ReportText != rr.ReportText {
		t.Errorf("splice differs from a cold verify of the client's edited DEF:\n--- cold ---\n%s--- spliced ---\n%s",
			cold.ReportText, rr.ReportText)
	}
}

// TestReverifyEvictedBaseIs404: once the base job is evicted its per-request
// config is gone, so a reverify against it — either delta kind — is refused
// rather than silently run under a different config.
func TestReverifyEvictedBaseIs404(t *testing.T) {
	_, ts := newTestServer(t, Options{ReportCacheCap: 1})
	base := verifyOK(t, ts, tinyJob())
	victim := firstVictim(t, base.ReportText)
	rr := reverifyOK(t, ts, &ReverifyRequest{
		BaseJobID: base.JobID,
		Repair:    &RepairDelta{Victim: victim, Fix: "upsize-driver"},
	})
	// The reverify job (cap 1) evicted the base.
	if rr.FullRecompute {
		t.Fatal("base evicted before the first reverify completed")
	}
	for name, req := range map[string]*ReverifyRequest{
		"inline def": {BaseJobID: base.JobID, DEF: rr.DEF},
		"repair":     {BaseJobID: base.JobID, Repair: &RepairDelta{Victim: victim, Fix: "upsize-driver"}},
	} {
		if status, _ := postJSON(t, ts, "/v1/reverify", req); status != http.StatusNotFound {
			t.Errorf("%s against evicted base = %d, want 404", name, status)
		}
	}
}

// TestReverifyUnusableBaseDegrades: a base whose cached state cannot be
// indexed (here: diagnostics lost) degrades to a full recompute under the
// base's own config — flagged, byte-identical, never an error.
func TestReverifyUnusableBaseDegrades(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	base := verifyOK(t, ts, tinyJob())
	victim := firstVictim(t, base.ReportText)
	// Sever the cached diagnostics so BaseRun cannot index the report.
	srv.jobByID(base.JobID).report.Diagnostics = nil

	full := reverifyOK(t, ts, &ReverifyRequest{
		BaseJobID: base.JobID,
		Repair:    &RepairDelta{Victim: victim, Fix: "upsize-driver"},
	})
	if !full.FullRecompute {
		t.Error("unusable base did not degrade to full recompute")
	}
	if full.ClustersReused != 0 || full.ClustersRecomputed != full.Clusters {
		t.Errorf("degraded accounting %+v, want 0 reused / all recomputed", full)
	}

	// Identity still holds: a cold verify of the repaired DEF under the base
	// job's overrides renders the same bytes.
	coldReq := tinyJob()
	coldReq.DSP = nil
	coldReq.DEF = full.DEF
	cold := verifyOK(t, ts, coldReq)
	if cold.ReportText != full.ReportText {
		t.Errorf("degraded recompute differs from cold verify:\n--- cold ---\n%s--- degraded ---\n%s",
			cold.ReportText, full.ReportText)
	}
}

// TestReverifyBadRequests: malformed deltas are rejected before any work.
func TestReverifyBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	base := verifyOK(t, ts, tinyJob())
	victim := firstVictim(t, base.ReportText)

	cases := []struct {
		name string
		body string
		want int
	}{
		{"not json", "{", http.StatusBadRequest},
		{"no base job", `{"def":"x"}`, http.StatusBadRequest},
		{"neither delta", `{"base_job_id":"job-1"}`, http.StatusBadRequest},
		{"both deltas", `{"base_job_id":"job-1","def":"x","repair":{"victim":"n","fix":"upsize-driver"}}`, http.StatusBadRequest},
		{"unknown field", `{"base_job_id":"job-1","def":"x","bogus":1}`, http.StatusBadRequest},
		{"negative timeout", `{"base_job_id":"job-1","def":"x","timeout_ms":-1}`, http.StatusBadRequest},
		{"unparseable def", `{"base_job_id":"job-1","def":"NOT A DEF"}`, http.StatusBadRequest},
		{"unknown fix", `{"base_job_id":"` + base.JobID + `","repair":{"victim":"` + victim + `","fix":"add-shielding"}}`, http.StatusBadRequest},
		{"unknown victim", `{"base_job_id":"` + base.JobID + `","repair":{"victim":"no/such/net","fix":"upsize-driver"}}`, http.StatusBadRequest},
		{"unknown cell", `{"base_job_id":"` + base.JobID + `","repair":{"victim":"` + victim + `","fix":"upsize-driver","cell":"MYSTERY_X9"}}`, http.StatusBadRequest},
		{"unknown base with repair", `{"base_job_id":"job-999","repair":{"victim":"n","fix":"upsize-driver"}}`, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/reverify", "application/json", bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}

	if resp, err := http.Get(ts.URL + "/v1/reverify"); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/reverify = %d, want 405", resp.StatusCode)
		}
	}
}
