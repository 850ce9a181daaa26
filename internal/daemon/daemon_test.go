package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"xtverify"
	"xtverify/internal/faultinject"
)

// tinyJob is the small deterministic design every test submits: one
// channel, few tracks, fixed-resistance drivers — seconds of work, stable
// fingerprints so cache layers actually engage across jobs and restarts.
func tinyJob() *VerifyRequest {
	return &VerifyRequest{
		DSP: &DSPRequest{
			Seed:             77,
			Channels:         1,
			TracksPerChannel: 40,
			ChannelLengthUM:  1000,
			LatchFraction:    0.3,
			ClockSpines:      1,
		},
		Model:             "fixed",
		CapRatioThreshold: 0.03,
	}
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Engine.Workers == 0 {
		opts.Engine.Workers = 2
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// doVerify is the goroutine-safe submission helper (no t.Fatal).
func doVerify(ts *httptest.Server, req *VerifyRequest) (status int, raw []byte, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	raw, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, raw, nil
}

func postVerify(t *testing.T, ts *httptest.Server, req *VerifyRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

func verifyOK(t *testing.T, ts *httptest.Server, req *VerifyRequest) VerifyResponse {
	t.Helper()
	resp, raw := postVerify(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/verify = %d: %s", resp.StatusCode, raw)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(raw, &vr); err != nil {
		t.Fatalf("bad response body: %v\n%s", err, raw)
	}
	return vr
}

func getMetrics(t *testing.T, ts *httptest.Server) MetricsBody {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsBody
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestVerifyEndToEnd(t *testing.T) {
	faultinject.LeakCheck(t)
	_, ts := newTestServer(t, Options{})
	vr := verifyOK(t, ts, tinyJob())
	if vr.ReportText == "" {
		t.Error("empty report_text")
	}
	if vr.Clusters == 0 || vr.Verified != vr.Clusters {
		t.Errorf("clusters %d verified %d, want all verified", vr.Clusters, vr.Verified)
	}
	if vr.Unverified != 0 || vr.Degraded != 0 {
		t.Errorf("healthy job reported degraded %d unverified %d", vr.Degraded, vr.Unverified)
	}
	if len(vr.Counters) == 0 {
		t.Error("no engine counters in response")
	}
	if vr.Counters["screen_bound_evals"] == 0 {
		t.Errorf("screen_bound_evals = 0 with screening on: %v", vr.Counters)
	}
	if vr.Screened != int(vr.Counters["screened_rung0"]) {
		t.Errorf("screened %d disagrees with screened_rung0 counter %d", vr.Screened, vr.Counters["screened_rung0"])
	}
	m := getMetrics(t, ts)
	if m.Jobs.Accepted != 1 || m.Jobs.Completed != 1 {
		t.Errorf("jobs accepted %d completed %d, want 1/1", m.Jobs.Accepted, m.Jobs.Completed)
	}
	if len(m.EngineCounters) == 0 {
		t.Error("daemon accumulated no engine counters")
	}
}

func TestBadRequests(t *testing.T) {
	faultinject.LeakCheck(t)
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"not json", "{", http.StatusBadRequest},
		{"neither design", `{}`, http.StatusBadRequest},
		{"both designs", `{"dsp":{"seed":1},"def":"x"}`, http.StatusBadRequest},
		{"unknown field", `{"dsp":{"seed":1},"bogus":true}`, http.StatusBadRequest},
		{"bad model", `{"dsp":{"seed":1},"model":"quantum"}`, http.StatusBadRequest},
		{"negative timeout", `{"dsp":{"seed":1},"timeout_ms":-5}`, http.StatusBadRequest},
		{"dsp logic correlation", `{"dsp":{"seed":1},"logic_correlation":true}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader([]byte(tc.body)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status = %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
	if m := getMetrics(t, ts); m.Jobs.Accepted != 0 {
		t.Errorf("bad requests were admitted: %+v", m.Jobs)
	}
}

// TestWarmColdRestartByteIdentity is the durability acceptance test at the
// daemon level: a fresh daemon instance over a populated persistent cache
// must return byte-identical report_text, and a corrupted cache directory
// must degrade to recompute — still byte-identical, with the discards
// surfaced in /metrics.
func TestWarmColdRestartByteIdentity(t *testing.T) {
	faultinject.LeakCheck(t)
	dir := t.TempDir()
	open := func() Options {
		store, err := xtverify.OpenROMStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return Options{Engine: xtverify.Config{ROMStore: store}}
	}

	// Cold daemon: computes everything, populates the store.
	_, ts1 := newTestServer(t, open())
	cold := verifyOK(t, ts1, tinyJob())
	m1 := getMetrics(t, ts1)
	if m1.ROMStore == nil || m1.ROMStore.Writes == 0 {
		t.Fatalf("cold daemon wrote nothing to the store: %+v", m1.ROMStore)
	}
	ts1.Close()

	// Restarted daemon: in-memory cache empty, disk warm.
	_, ts2 := newTestServer(t, open())
	warm := verifyOK(t, ts2, tinyJob())
	if warm.ReportText != cold.ReportText {
		t.Errorf("warm restart report differs from cold:\n--- cold ---\n%s--- warm ---\n%s", cold.ReportText, warm.ReportText)
	}
	m2 := getMetrics(t, ts2)
	// Warm hits may arrive through the prepared-core path, which satisfies
	// the cluster before the ROM cache is ever consulted — so assert on the
	// store's own hit counter, not the cache's backing-hit counter.
	if m2.ROMStore.Hits == 0 {
		t.Errorf("warm daemon never hit the store: cache %+v store %+v", m2.ROMCache, m2.ROMStore)
	}
	ts2.Close()

	// Corrupt every entry; a third daemon must recompute, count the
	// discards, and still produce the identical report.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("store directory empty")
	}
	for _, e := range ents {
		path := filepath.Join(dir, e.Name())
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[len(raw)/2] ^= 0x40
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, ts3 := newTestServer(t, open())
	recomputed := verifyOK(t, ts3, tinyJob())
	if recomputed.ReportText != cold.ReportText {
		t.Errorf("post-corruption report differs from cold:\n--- cold ---\n%s--- got ---\n%s", cold.ReportText, recomputed.ReportText)
	}
	m3 := getMetrics(t, ts3)
	if m3.ROMStore.CorruptDiscarded == 0 {
		t.Errorf("store discarded nothing despite corruption: %+v", m3.ROMStore)
	}
	if m3.EngineCounters["cache_corrupt_discarded"] == 0 {
		t.Errorf("cache_corrupt_discarded missing from engine counters: %v", m3.EngineCounters)
	}
}

// TestOverloadSheds429 fills the single running slot and the single queue
// slot with jobs gated on a channel, then checks the next requests on both
// job endpoints are shed with 429 + Retry-After while the gated jobs
// complete normally once released — and the daemon keeps serving afterwards.
func TestOverloadSheds429(t *testing.T) {
	faultinject.LeakCheck(t)
	srv, ts := newTestServer(t, Options{MaxConcurrent: 1, MaxQueue: 1})
	// A completed base job anchors the overflow reverify requests. It runs
	// before the gate goes in, under a config the gated jobs do not share (a
	// report-cache hit would bypass admission).
	baseReq := tinyJob()
	baseReq.CapRatioThreshold = 0.05
	base := verifyOK(t, ts, baseReq)

	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	defer release()
	restore := faultinject.SetClusterHook(func(victim, stage string) error {
		<-gate
		return nil
	})
	defer restore()

	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			status, raw, err := doVerify(ts, tinyJob())
			if err != nil {
				raw = []byte(err.Error())
			}
			results <- result{status, raw}
		}()
		// First request must hold the slot before the second queues.
		if i == 0 {
			waitFor(t, "first job running", func() bool { return srv.Metrics().Jobs.Running == 1 })
		} else {
			waitFor(t, "second job queued", func() bool { return srv.Metrics().Jobs.Waiting == 1 })
		}
	}

	overflow := []struct {
		name, path string
		body       any
	}{
		{"verify", "/v1/verify", tinyJob()},
		{"reverify", "/v1/reverify", &ReverifyRequest{
			BaseJobID: base.JobID,
			Repair:    &RepairDelta{Victim: firstVictim(t, base.ReportText), Fix: "upsize-driver"},
		}},
		// Finding the victim means parsing the base design, which happens
		// only once the job is admitted: a full queue sheds it first.
		{"reverify unknown victim", "/v1/reverify", &ReverifyRequest{
			BaseJobID: base.JobID,
			Repair:    &RepairDelta{Victim: "no/such/net", Fix: "upsize-driver"},
		}},
	}
	for _, ov := range overflow {
		body, err := json.Marshal(ov.body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+ov.path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Errorf("overflow %s: status %d body %s, want 429", ov.name, resp.StatusCode, raw)
		}
		if ra := resp.Header.Get("Retry-After"); ra == "" {
			t.Errorf("overflow %s: 429 without Retry-After header", ov.name)
		}
	}

	release()
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Errorf("gated job %d: status %d body %s", i, r.status, r.body)
		}
	}
	m := srv.Metrics()
	if m.Jobs.RejectedQueue != uint64(len(overflow)) || m.Jobs.Completed != 3 {
		t.Errorf("jobs = %+v, want %d rejected, 3 completed (base + 2 gated)", m.Jobs, len(overflow))
	}

	// Shedding load must not wedge the daemon.
	restore()
	verifyOK(t, ts, tinyJob())
}

// TestClientDisconnectCancelsJob drops the client mid-job and checks the
// daemon cancels the run, counts it, frees the slot, and keeps serving —
// no stuck jobs, no goroutine leaks.
func TestClientDisconnectCancelsJob(t *testing.T) {
	faultinject.LeakCheck(t)
	restore := faultinject.SetClusterHook(faultinject.SlowClusters(10 * time.Millisecond))
	defer restore()

	srv, ts := newTestServer(t, Options{Engine: xtverify.Config{Workers: 1}})
	ctx, cancel := context.WithCancel(context.Background())
	body, _ := json.Marshal(tinyJob())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/verify", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("request unexpectedly succeeded: %d", resp.StatusCode)
		}
		errc <- err
	}()
	waitFor(t, "job running", func() bool { return srv.Metrics().Jobs.Running == 1 })
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("client saw %v, want context.Canceled", err)
	}
	waitFor(t, "job canceled and slot freed", func() bool {
		m := srv.Metrics()
		return m.Jobs.Canceled == 1 && m.Jobs.Running == 0
	})

	// The slot is free and the daemon healthy.
	restore()
	verifyOK(t, ts, tinyJob())
	if m := srv.Metrics(); m.Jobs.Completed != 1 || m.Jobs.Canceled != 1 {
		t.Errorf("jobs = %+v, want 1 completed + 1 canceled", m.Jobs)
	}
}

// TestInjectedPanicsDegradeNotCrash panics every ladder attempt: the job
// must come back with every cluster unverified — the daemon absorbs a
// worst-case numerics blowup as data, not as a crash.
func TestInjectedPanicsDegradeNotCrash(t *testing.T) {
	faultinject.LeakCheck(t)
	restore := faultinject.SetClusterHook(faultinject.PanicClusters())
	defer restore()

	_, ts := newTestServer(t, Options{})
	vr := verifyOK(t, ts, tinyJob())
	if vr.Clusters == 0 || vr.Unverified != vr.Clusters {
		t.Errorf("clusters %d unverified %d, want all unverified under injected panics", vr.Clusters, vr.Unverified)
	}
	restore()
	clean := verifyOK(t, ts, tinyJob())
	if clean.Cached {
		t.Error("resubmission after the faults cleared was served the cached all-unverified report")
	}
	if clean.Unverified != 0 {
		t.Errorf("daemon did not recover after panics: %+v", clean)
	}
}

// TestInjectedFailuresDegradeToFallback fails only the fast rung: every
// cluster must still verify via the fallback ladder and the job report the
// degradation honestly.
func TestInjectedFailuresDegradeToFallback(t *testing.T) {
	faultinject.LeakCheck(t)
	restore := faultinject.SetClusterHook(func(victim, stage string) error {
		if stage == "sympvl" {
			return errors.New("faultinject: reduction rejected")
		}
		return nil
	})
	defer restore()

	_, ts := newTestServer(t, Options{})
	job := tinyJob()
	job.NoScreen = true // every cluster must reach the failing rung
	vr := verifyOK(t, ts, job)
	if vr.Unverified != 0 {
		t.Errorf("unverified %d, want 0 (fallback should absorb fast-rung failures)", vr.Unverified)
	}
	if vr.Degraded != vr.Clusters {
		t.Errorf("degraded %d of %d, want all", vr.Degraded, vr.Clusters)
	}
	if vr.Screened != 0 {
		t.Errorf("screened %d with no_screen set, want 0", vr.Screened)
	}
}

// TestDrainRefusesNewJobs: draining must flip /healthz to 503 and refuse
// new jobs on both job endpoints while Drain returns once in-flight work is
// done.
func TestDrainRefusesNewJobs(t *testing.T) {
	faultinject.LeakCheck(t)
	srv, ts := newTestServer(t, Options{})
	base := verifyOK(t, ts, tinyJob())

	srv.BeginDrain()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", resp.StatusCode)
	}
	r2, raw := postVerify(t, ts, tinyJob())
	if r2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("verify while draining = %d body %s, want 503", r2.StatusCode, raw)
	}
	status, raw := postJSON(t, ts, "/v1/reverify", &ReverifyRequest{
		BaseJobID: base.JobID,
		Repair:    &RepairDelta{Victim: firstVictim(t, base.ReportText), Fix: "upsize-driver"},
	})
	if status != http.StatusServiceUnavailable {
		t.Errorf("reverify while draining = %d body %s, want 503", status, raw)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Errorf("drain with no in-flight jobs: %v", err)
	}
}

// TestJobDeadlineExceeded gives a verify and a reverify job a deadline far
// shorter than their injected slowness: the daemon must answer 504 to both
// and stay healthy.
func TestJobDeadlineExceeded(t *testing.T) {
	faultinject.LeakCheck(t)
	srv, ts := newTestServer(t, Options{Engine: xtverify.Config{Workers: 1}})
	baseReq := tinyJob()
	baseReq.CapRatioThreshold = 0.05 // not the report-cache key of the jobs below
	base := verifyOK(t, ts, baseReq)

	restore := faultinject.SetClusterHook(faultinject.SlowClusters(50 * time.Millisecond))
	defer restore()
	req := tinyJob()
	req.TimeoutMS = 30
	resp, raw := postVerify(t, ts, req)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("verify: status %d body %s, want 504", resp.StatusCode, raw)
	}
	status, raw := postJSON(t, ts, "/v1/reverify", &ReverifyRequest{
		BaseJobID: base.JobID,
		Repair:    &RepairDelta{Victim: firstVictim(t, base.ReportText), Fix: "upsize-driver"},
		TimeoutMS: 30,
	})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("reverify: status %d body %s, want 504", status, raw)
	}
	waitFor(t, "timed-out jobs accounted", func() bool {
		m := srv.Metrics()
		return m.Jobs.TimedOut == 2 && m.Jobs.Running == 0
	})
	restore()
	verifyOK(t, ts, tinyJob())
}

// TestHugeTimeoutIsClamped: a timeout_ms too large to convert to a
// time.Duration is clamped to MaxJobTimeout like any other oversized
// deadline, on both job endpoints, instead of overflowing into an
// already-expired one.
func TestHugeTimeoutIsClamped(t *testing.T) {
	faultinject.LeakCheck(t)
	srv, ts := newTestServer(t, Options{})
	limit := srv.opts.MaxJobTimeout
	for _, tc := range []struct {
		ms   int64
		want time.Duration
	}{
		{0, srv.opts.DefaultJobTimeout},
		{1, time.Millisecond},
		{limit.Milliseconds(), limit},
		{limit.Milliseconds() + 1, limit},
		{10_000_000_000_000, limit},
		{math.MaxInt64, limit},
	} {
		if got := srv.jobTimeout(tc.ms); got != tc.want {
			t.Errorf("jobTimeout(%d) = %v, want %v", tc.ms, got, tc.want)
		}
	}

	req := tinyJob()
	req.TimeoutMS = 10_000_000_000_000
	base := verifyOK(t, ts, req)
	reverifyOK(t, ts, &ReverifyRequest{
		BaseJobID: base.JobID,
		Repair:    &RepairDelta{Victim: firstVictim(t, base.ReportText), Fix: "upsize-driver"},
		TimeoutMS: math.MaxInt64,
	})
}

// TestConcurrentSubmissions hammers the daemon from many goroutines (run
// under -race in CI): every request must end 200 or 429, accounting must
// balance, and nothing may leak or wedge.
func TestConcurrentSubmissions(t *testing.T) {
	faultinject.LeakCheck(t)
	srv, ts := newTestServer(t, Options{MaxConcurrent: 2, MaxQueue: 32})
	const clients, perClient = 4, 3
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				status, raw, err := doVerify(ts, tinyJob())
				if err != nil {
					errs <- err
				} else if status != http.StatusOK && status != http.StatusTooManyRequests {
					errs <- fmt.Errorf("status %d: %s", status, raw)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m := srv.Metrics()
	if got := m.Jobs.Completed + m.Jobs.RejectedQueue + m.ReportCache.Hits; got != clients*perClient {
		t.Errorf("completed %d + rejected %d + report-cache hits %d = %d, want %d",
			m.Jobs.Completed, m.Jobs.RejectedQueue, m.ReportCache.Hits, got, clients*perClient)
	}
	if m.Jobs.Running != 0 || m.Jobs.Waiting != 0 {
		t.Errorf("stuck jobs after drain: %+v", m.Jobs)
	}
	// Identical design across all jobs: the shared cache must have served.
	if m.ROMCache.Hits == 0 {
		t.Errorf("shared ROM cache never hit across %d identical jobs: %+v", clients*perClient, m.ROMCache)
	}
}

// tinyDEF serializes the tiny test design to inline DEF, the only form a
// streamed job accepts.
func tinyDEF(t *testing.T) string {
	t.Helper()
	gen, err := xtverify.NewVerifierFromDSP(resolveDSP(tinyJob().DSP), xtverify.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := gen.WriteDEF(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestStreamJobByteIdentity: a streamed DEF job produces the same
// report_text as a materialized run of the same design and config, counts
// its streaming work, and shares the report cache with materialized jobs
// (StreamIngest is not part of the canonical config).
func TestStreamJobByteIdentity(t *testing.T) {
	faultinject.LeakCheck(t)
	def := tinyDEF(t)
	req := &VerifyRequest{DEF: def, Model: "fixed", CapRatioThreshold: 0.03}
	sreq := *req
	sreq.Stream = true

	_, ts := newTestServer(t, Options{})
	streamed := verifyOK(t, ts, &sreq)
	if streamed.Cached {
		t.Fatal("first streamed job claims to be cached")
	}
	if streamed.Counters["nets_streamed"] == 0 || streamed.Counters["clusters_emitted_eager"] == 0 {
		t.Errorf("streamed job recorded no streaming work: %v", streamed.Counters)
	}
	// Same design+config without stream: served from the shared cache.
	repeat := verifyOK(t, ts, req)
	if !repeat.Cached || repeat.ReportText != streamed.ReportText {
		t.Errorf("materialized repeat not served from the streamed job's cache entry (cached=%v)", repeat.Cached)
	}

	// A genuinely materialized run on a fresh daemon: byte-identical text.
	_, ts2 := newTestServer(t, Options{})
	materialized := verifyOK(t, ts2, req)
	if materialized.Cached {
		t.Fatal("fresh daemon served from cache")
	}
	if materialized.ReportText != streamed.ReportText {
		t.Errorf("streamed and materialized report_text differ:\n--- streamed ---\n%s--- materialized ---\n%s",
			streamed.ReportText, materialized.ReportText)
	}
}

// TestStreamJobBadRequests pins the validation: stream is DEF-only and
// excludes timing windows.
func TestStreamJobBadRequests(t *testing.T) {
	faultinject.LeakCheck(t)
	_, ts := newTestServer(t, Options{})
	for name, body := range map[string]string{
		"stream with dsp":            `{"dsp":{"seed":1},"stream":true}`,
		"stream with timing windows": `{"def":"x","stream":true,"timing_windows":true}`,
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("status = %d, want 400", resp.StatusCode)
			}
		})
	}
}

// TestReverifyAgainstStreamedBase: a streamed base job cannot be spliced
// against (no materialized design to index), so a def delta degrades to a
// full recompute — same availability contract as an unusable base. A repair
// delta needs the base design itself, which a streamed job never holds: the
// client's request is refused with 400, and the daemon stays healthy.
func TestReverifyAgainstStreamedBase(t *testing.T) {
	faultinject.LeakCheck(t)
	def := tinyDEF(t)
	_, ts := newTestServer(t, Options{})
	base := verifyOK(t, ts, &VerifyRequest{DEF: def, Model: "fixed", CapRatioThreshold: 0.03, Stream: true})
	rr := reverifyOK(t, ts, &ReverifyRequest{BaseJobID: base.JobID, DEF: def})
	if !rr.FullRecompute {
		t.Error("reverify against a streamed base claims to have spliced")
	}
	if rr.ReportText != base.ReportText {
		t.Errorf("identity ECO against streamed base changed the report:\n--- base ---\n%s--- reverify ---\n%s",
			base.ReportText, rr.ReportText)
	}

	status, raw := postJSON(t, ts, "/v1/reverify", &ReverifyRequest{BaseJobID: base.JobID,
		Repair: &RepairDelta{Victim: firstVictim(t, base.ReportText), Fix: "upsize-driver"}})
	if status != http.StatusBadRequest {
		t.Fatalf("repair against a streamed base = %d, want 400: %s", status, raw)
	}
	var body errorResponse
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("bad error body: %v\n%s", err, raw)
	}
	for _, want := range []string{"was streamed", "without stream", "def delta"} {
		if !strings.Contains(body.Error, want) {
			t.Errorf("error %q lacks %q", body.Error, want)
		}
	}
	checkHealthy(t, ts)
}

// TestMalformedDEFIs400 pins the input-error contract on both front ends: a
// DEF that repeats a net name or has a bad UNITS line is the client's fault,
// so a materialized and a streamed job alike answer 400 with the parser's
// line-numbered message — never a 500, never a dropped connection.
func TestMalformedDEFIs400(t *testing.T) {
	faultinject.LeakCheck(t)
	def := tinyDEF(t)
	dupName := strings.Replace(def, "\n- ch0/n1 ", "\n- ch0/n0 ", 1)
	badUnits := strings.Replace(def, "UNITS DISTANCE MICRONS 1000", "UNITS DISTANCE MICRONS minus", 1)
	route := strings.Index(def, "+ ROUTED METAL")
	if dupName == def || badUnits == def || route < 0 {
		t.Fatal("tiny DEF lacks the net, UNITS or route line the test edits")
	}
	// Two NaN routes: the first route's first coordinate alone, which the
	// rest of the net's wiring survives, and a net whose whole route is one
	// NaN segment, which leaves it no node at all.
	x0 := route + strings.Index(def[route:], "( ") + 2
	routeNaN := def[:x0] + "NaN" + def[x0+strings.Index(def[x0:], " "):]
	nanOnlyRoute := def[:route] + "+ ROUTED METAL2 600 ( NaN 0 ) ( 1000 0 )" + def[route+strings.Index(def[route:], "\n;"):]
	// Two hostile designs that once ran the daemon out of memory. The first
	// is one METAL2 wire ending at x = 1.2·10¹⁴ DBU, which extraction would
	// cut into about 5·10⁹ pieces; the parser rejects its coordinate. The
	// second stays within the coordinate bound, but its nine wires from
	// -10⁸ to 10⁸ µm come to 7.2·10⁷ pieces, past extract.PieceBudget.
	hostile := func(pins, route string) string {
		return "VERSION 5.8 ;\nDESIGN hostile ;\nUNITS DISTANCE MICRONS 1000 ;\n" +
			"COMPONENTS 2 ;\n- d INV_X1 + PLACED ( 0 0 ) N ;\n- r INV_X1 + PLACED ( 1000 0 ) N ;\nEND COMPONENTS\n" +
			"NETS 1 ;\n- w " + pins + "\n" + route + ";\nEND NETS\nEND DESIGN\n"
	}
	farWire := hostile("( d Z ) ( r A )", "+ ROUTED METAL2 600 ( 0 0 ) ( 120000000000000 0 )\n")
	overBudget := hostile("( d Z ) ( r A )", "+ ROUTED METAL2 600 ( -100000000000 0 ) ( 100000000000 0 )\n"+
		strings.Repeat("NEW METAL2 600 ( -100000000000 0 ) ( 100000000000 0 )\n", 8))
	// A net with only a receiver pin parses, but fails design validation:
	// at construction when materialized, during the run when streamed.
	receiverOnly := hostile("( r A )", "+ ROUTED METAL2 600 ( 0 0 ) ( 1000 0 )\n")
	_, ts := newTestServer(t, Options{})
	for _, tc := range []struct {
		name, def, msg string
		// parse marks a line-numbered DEF parse error.
		parse bool
	}{
		{"duplicate net name", dupName, `duplicate net name "ch0/n0"`, true},
		{"bad UNITS", badUnits, "bad UNITS", true},
		{"NaN route coordinate", routeNaN, `bad coordinate "NaN"`, true},
		{"NaN-only route", nanOnlyRoute, `bad coordinate "NaN"`, true},
		{"coordinate beyond bound", farWire, `bad coordinate "120000000000000"`, true},
		{"pieces beyond budget", overBudget, "wire pieces", false},
		{"receiver-only net", receiverOnly, `net "w" has no driver`, false},
	} {
		for _, stream := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/stream=%t", tc.name, stream), func(t *testing.T) {
				resp, raw := postVerify(t, ts, &VerifyRequest{DEF: tc.def, Model: "fixed", Stream: stream})
				if resp.StatusCode != http.StatusBadRequest {
					t.Fatalf("status = %d, want 400: %s", resp.StatusCode, raw)
				}
				var body errorResponse
				if err := json.Unmarshal(raw, &body); err != nil {
					t.Fatalf("bad error body: %v\n%s", err, raw)
				}
				if !strings.Contains(body.Error, tc.msg) || tc.parse && !strings.Contains(body.Error, "deflite: line ") {
					t.Errorf("error %q lacks %q (line-numbered parse error: %t)", body.Error, tc.msg, tc.parse)
				}
				checkHealthy(t, ts)
			})
		}
	}
}

// checkHealthy asserts /healthz answers 200 after a rejected request.
func checkHealthy(t *testing.T, ts *httptest.Server) {
	t.Helper()
	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Errorf("healthz after the rejected request = %d, want 200", health.StatusCode)
	}
}

// spaces is an endless reader of JSON whitespace, so an oversize body costs
// the client no memory.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestOversizeBodyIs413: a job body one byte past maxRequestBytes answers
// 413 on both job endpoints, and the daemon stays healthy.
func TestOversizeBodyIs413(t *testing.T) {
	faultinject.LeakCheck(t)
	_, ts := newTestServer(t, Options{})
	for _, path := range []string{"/v1/verify", "/v1/reverify"} {
		t.Run(path, func(t *testing.T) {
			body := io.MultiReader(io.LimitReader(spaces{}, maxRequestBytes+1), strings.NewReader("{}"))
			resp, err := http.Post(ts.URL+path, "application/json", body)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("status = %d, want 413: %s", resp.StatusCode, raw)
			}
			checkHealthy(t, ts)
		})
	}
	if m := getMetrics(t, ts); m.Jobs.Accepted != 0 {
		t.Errorf("oversize requests were admitted: %+v", m.Jobs)
	}
}

// TestDSPRequestRanges pins the DSP field ranges: every request the repo's
// tests, CI and README send lies inside them, each field is checked at both
// ends, and an out-of-range field answers 400 naming it before anything is
// generated.
func TestDSPRequestRanges(t *testing.T) {
	faultinject.LeakCheck(t)
	for _, tc := range []struct {
		name string
		req  DSPRequest
		bad  string // the field named, "" when in range
	}{
		{"tinyJob", *tinyJob().DSP, ""},
		{"CI smoke", DSPRequest{Seed: 77, Channels: 1, TracksPerChannel: 40, ChannelLengthUM: 1000, LatchFraction: 0.3, ClockSpines: 1}, ""},
		{"README", DSPRequest{Seed: 1999, Channels: 2, TracksPerChannel: 105}, ""},
		{"all defaults", DSPRequest{Seed: -5}, ""},
		{"every limit", DSPRequest{Channels: maxDSPChannels, TracksPerChannel: maxDSPTracks, ChannelLengthUM: maxDSPChannelLengthUM,
			BusFraction: 1, LatchFraction: 1, ComplementaryFraction: 1, ClockSpines: maxDSPClockSpines}, ""},
		{"negative channels", DSPRequest{Channels: -1}, "channels"},
		{"too many channels", DSPRequest{Channels: maxDSPChannels + 1}, "channels"},
		{"too many tracks", DSPRequest{TracksPerChannel: maxDSPTracks + 1}, "tracks_per_channel"},
		{"negative tracks", DSPRequest{TracksPerChannel: -40}, "tracks_per_channel"},
		{"channel too long", DSPRequest{ChannelLengthUM: 1e300}, "channel_length_um"},
		{"negative length", DSPRequest{ChannelLengthUM: -1}, "channel_length_um"},
		{"bus fraction", DSPRequest{BusFraction: 2}, "bus_fraction"},
		{"latch fraction", DSPRequest{LatchFraction: -0.1}, "latch_fraction"},
		{"complementary fraction", DSPRequest{ComplementaryFraction: 1.5}, "complementary_fraction"},
		{"too many spines", DSPRequest{ClockSpines: maxDSPClockSpines + 1}, "clock_spines"},
	} {
		got := tc.req.outOfRange()
		if tc.bad == "" && got != "" || tc.bad != "" && !strings.HasPrefix(got, "dsp."+tc.bad+" ") {
			t.Errorf("%s: outOfRange() = %q, want the field %q named", tc.name, got, tc.bad)
		}
	}

	_, ts := newTestServer(t, Options{})
	resp, err := http.Post(ts.URL+"/v1/verify", "application/json", strings.NewReader(`{"dsp":{"seed":1,"bus_fraction":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "dsp.bus_fraction") {
		t.Errorf("bus_fraction 2: status %d %s, want 400 naming dsp.bus_fraction", resp.StatusCode, raw)
	}
	checkHealthy(t, ts)
	if m := getMetrics(t, ts); m.Jobs.Accepted != 0 {
		t.Errorf("an out-of-range job was admitted: %+v", m.Jobs)
	}
}
