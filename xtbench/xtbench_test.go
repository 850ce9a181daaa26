package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"xtverify"
	"xtverify/internal/design"
	"xtverify/internal/dsp"
	"xtverify/internal/obs"
)

func TestPercentilesCarrySampleCounts(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending, so sorting matters
		}
		return out
	}
	p, ok := tail(xs(99), 0.9)
	if ok || p.N != 99 || p.Beyond != 9 || p.Value != 90 {
		t.Errorf("p90 of 99 samples = %+v, reportable %v; want value 90, 9 beyond, not reportable", p, ok)
	}
	p, ok = tail(xs(100), 0.9)
	if !ok || p.N != 100 || p.Beyond != 10 || p.Value != 90 {
		t.Errorf("p90 of 100 samples = %+v, reportable %v; want value 90, 10 beyond, reportable", p, ok)
	}
	if p := nearestRank(nil, 0.9); p.N != 0 {
		t.Errorf("empty sample: %+v", p)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median of 3 = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median of 4 = %v", m)
	}
}

func TestWindowFitUsesTheMedianOperation(t *testing.T) {
	times := []float64{4, 9, 5} // median 5 s
	if !fits(20*time.Second, 25*time.Second, times) {
		t.Errorf("20 s + a 5 s operation must fit a 25 s window")
	}
	if fits(21*time.Second, 25*time.Second, times) {
		t.Errorf("21 s + a 5 s operation must not fit a 25 s window")
	}
	if !fits(0, 25*time.Second, nil) {
		t.Errorf("with no operation timed yet, the first one fits")
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root.op", StartNs: 0, EndNs: 100},
		// Overlapping children count once; a child running past the parent
		// is clipped to it.
		{ID: 2, Parent: 1, Name: "a.x", StartNs: 10, EndNs: 30},
		{ID: 3, Parent: 1, Name: "a.y", StartNs: 20, EndNs: 40},
		{ID: 4, Parent: 1, Name: "b.x", StartNs: 50, EndNs: 60},
		{ID: 5, Parent: 1, Name: "b.y", StartNs: 90, EndNs: 120},
		// A grandchild is subtracted from its own parent only.
		{ID: 6, Parent: 4, Name: "c.x", StartNs: 52, EndNs: 55},
	}
	got := selfTimes(spans)
	want := []int64{100 - (30 + 10 + 10), 20, 20, 10 - 3, 30, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
	for i := range spans {
		spans[i].Op = "op"
	}
	busy := layerBusy(spans)["op"]
	if busy["root"] != 50e-9 || busy["a"] != 40e-9 || busy["b"] != 37e-9 || busy["c"] != 3e-9 {
		t.Errorf("layer busy = %v", busy)
	}
}

func TestTracerNestsByCallOrder(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", "replay.op")
	a := tr.begin("op", "a.call")
	tr.end(a)
	b := tr.begin("op", "b.call")
	c := tr.begin("op", "c.call")
	tr.end(c)
	tr.end(b)
	tr.end(root)
	parents := []int{0, root, root, b}
	for i, s := range tr.spans {
		if s.Parent != parents[i] || s.EndNs < s.StartNs {
			t.Errorf("span %d = %+v, want parent %d", i, s, parents[i])
		}
	}
}

func TestFailureAccounting(t *testing.T) {
	var tl tally
	ok := []bool{
		tl.record(outcome{Digest: "d"}, "d"),
		tl.record(outcome{Err: errors.New("boom")}, "d"),
		tl.record(outcome{Status: 404, Digest: "d"}, "d"),
		tl.record(outcome{Status: 200, Digest: "d"}, "d"),
		tl.record(outcome{Unverified: 1, Digest: "d"}, "d"),
		tl.record(outcome{FullRecompute: true, Digest: "d"}, "d"),
		tl.record(outcome{Digest: "e"}, "d"),
		tl.record(outcome{Digest: "e"}, ""),
	}
	want := []bool{true, false, false, true, false, false, false, true}
	if !reflect.DeepEqual(ok, want) {
		t.Errorf("record results = %v, want %v", ok, want)
	}
	tl.fail("setup child")
	if tl.attempted != 9 || tl.failed != 6 {
		t.Errorf("attempted %d failed %d, want 9 and 6", tl.attempted, tl.failed)
	}
	for _, r := range []string{"error", "status 404", "unverified", "full_recompute", "digest", "setup child"} {
		if tl.reasons[r] != 1 {
			t.Errorf("reason %q counted %d times, want 1 (all: %v)", r, tl.reasons[r], tl.reasons)
		}
	}
}

func TestReferenceAdoptsTheFirstDigest(t *testing.T) {
	held := &reference{}
	if got := held.expect(""); got != "" {
		t.Errorf("a failed operation's empty digest was adopted")
	}
	if held.expect("a") != "a" || held.expect("b") != "a" {
		t.Errorf("held-out seed must check every operation against the run's first digest")
	}
	rec := &reference{want: "r"}
	if rec.expect("a") != "r" {
		t.Errorf("recorded seed must check against the recorded digest")
	}
	missing := &reference{missing: true}
	if missing.expect("a") != "" {
		t.Errorf("a missing recorded digest must not adopt one")
	}
}

func TestDigestIgnoresOnlyScreeningLines(t *testing.T) {
	base := "crosstalk verification report: dsp (3 nets)\nvictims simulated: 1, violations: 0\n"
	screened := base + "screening: 1/1 clusters cleared at rung 0 (bound x1.25 < margin 0.300 V)\n  screened n1 bound 0.0100 V\n"
	if digestText(base) != digestText(screened) {
		t.Errorf("screening lines changed the digest")
	}
	if digestText(base) == digestText(strings.Replace(base, "violations: 0", "violations: 1", 1)) {
		t.Errorf("a changed violation count kept the digest")
	}
}

func TestTransientBatchCountedOnce(t *testing.T) {
	s := &xtverify.MetricsSnapshot{Clusters: []obs.ClusterMetrics{
		{Phases: map[string]obs.PhaseMetrics{"transient": {Count: 2, TotalNs: 2e9}},
			Counters: map[string]int64{"scenarios_batched": 2}},
		{Phases: map[string]obs.PhaseMetrics{"transient": {Count: 2, TotalNs: 2e9}}},
	}}
	if got := fromSnapshot(s).transientS; got != 3 {
		t.Errorf("transient = %v s, want 3 (1 for the batched pair, 2 for the sequential one)", got)
	}
}

// TestEcoVictimsApplyWithoutRejection checks the chain's victims on a small
// design: distinct nets on distinct driver instances, each with a stronger
// cell of its kind, so every chained repair the daemon applies succeeds.
func TestEcoVictimsApplyWithoutRejection(t *testing.T) {
	cfg := ecoConfig(7)
	cfg.Channels, cfg.TracksPerChannel = 2, 40
	d, err := dsp.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vs := ecoVictims(d, 7, ecoChainLen)
	if len(vs) != ecoChainLen {
		t.Fatalf("got %d victims, want %d", len(vs), ecoChainLen)
	}
	if again := ecoVictims(d, 7, ecoChainLen); !reflect.DeepEqual(vs, again) {
		t.Errorf("victims depend on more than the seed: %v vs %v", vs, again)
	}
	nets, insts := map[string]bool{}, map[string]bool{}
	for _, v := range vs {
		n, ok := d.NetByName(v)
		if !ok || len(n.Drivers) == 0 {
			t.Fatalf("victim %q has no driver", v)
		}
		if nets[v] || insts[n.Drivers[0].Inst] {
			t.Errorf("victim %q repeats a net or a driver instance", v)
		}
		nets[v], insts[n.Drivers[0].Inst] = true, true
		if strongerCell(n.Drivers[0].Cell) == nil {
			t.Errorf("victim %q: no stronger %s", v, n.Drivers[0].Cell.Name)
		}
	}

	dir := t.TempDir()
	in := inputs{dir: dir}
	w := &workload{name: "eco-test", eco: true, design: func(int64) (*design.Design, error) { return dsp.Generate(cfg) },
		cfg: xtverify.Config{Workers: 1}}
	if err := generate(w, 7, in); err != nil {
		t.Fatal(err)
	}
	body, err := readBaseBody(in)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := readVictims(in)
	if err != nil {
		t.Fatal(err)
	}
	srv, reply, _, err := ecoSetup(w, body)
	if err != nil {
		t.Fatal(err)
	}
	prev := reply.resp.JobID
	for _, v := range chain {
		req, err := ecoRepairBody(prev, v)
		if err != nil {
			t.Fatal(err)
		}
		r, _, err := srv.post("/v1/reverify", req)
		if err != nil || r.resp.FullRecompute {
			t.Fatalf("repair of %s: status %d, full recompute %v: %v", v, r.status, r.resp.FullRecompute, err)
		}
		prev = r.resp.JobID
	}
}

// TestMetricTablesMatchBenchmarkJSON keeps the printed metrics and
// BENCHMARK.json in step.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark prints %d", len(bench.PerLayer), len(perLayer))
	}
	for i, m := range bench.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s (%s), benchmark %s (%s)", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	var e2e []string
	for _, m := range bench.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	if want := []string{"setup_s s", "nets_per_s nets/s", "peak_rss_mb MB"}; !reflect.DeepEqual(e2e, want) {
		t.Errorf("end-to-end metrics %v, the benchmark prints %v", e2e, want)
	}
	for i, w := range bench.Workloads {
		if i >= len(workloads) || workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json", i, w.Name)
		}
	}
}
