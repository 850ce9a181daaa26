package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"xtverify"
	"xtverify/internal/cells"
	"xtverify/internal/daemon"
	"xtverify/internal/deflite"
	"xtverify/internal/design"
	"xtverify/internal/dsp"
)

// workload is one benchmark input and engine configuration.
type workload struct {
	name string
	// eco marks the daemon workload; the others are batch workloads run
	// through NewVerifierFromDEF + RunContext.
	eco bool
	// design builds the workload's design for a seed.
	design func(seed int64) (*design.Design, error)
	// cfg is the engine configuration: the batch verifier's, or the
	// daemon's base engine config for eco-daemon.
	cfg xtverify.Config
	// streamCheck runs one untimed StreamIngest operation after the window,
	// whose digest must equal the materialized operations': the streamed ≡
	// materialized contract on the same DEF.
	streamCheck bool
}

// recordedSeed is the seed whose digests digests.json records.
const recordedSeed = 1999

// chipDSP is the BenchmarkChipStream design: 100 channels × 400 tracks ×
// 70 µm at 1.8 µm pitch, 40,100 nets.
func chipDSP(seed int64) (*design.Design, error) {
	return dsp.Generate(dsp.Config{Seed: seed, Channels: 100, TracksPerChannel: 400,
		ChannelLengthUM: 70, BusFraction: 0.05, LatchFraction: 0.25,
		ClockSpines: 1, TrackPitchUM: 1.8})
}

// ecoConfig is the relaxed-pitch daemon design: 20 channels × 80 tracks ×
// 70 µm at 1.8 µm pitch, 1,620 nets.
func ecoConfig(seed int64) dsp.Config {
	return dsp.Config{Seed: seed, Channels: 20, TracksPerChannel: 80,
		ChannelLengthUM: 70, BusFraction: 0.05, LatchFraction: 0.25,
		ClockSpines: 1, TrackPitchUM: 1.8}
}

func ecoDSP(seed int64) (*design.Design, error) { return dsp.Generate(ecoConfig(seed)) }

// paperDSP is the paper's DSP at one channel: 105 tracks × 2,400 µm at the
// dense 1.2 µm pitch, default fractions, 107 nets, generated from the
// recorded seed. Any other seed shuffles the driver cells among the drivers
// of each cell kind. A 107-net design is too small to average out the
// generator's randomness — across generator seeds a warm operation ranges
// from 2.5 to 4.5 s with the mean cluster size — while a shuffle keeps the
// geometry, the clusters and the multiset of cells, and still changes every
// victim's driver, its peaks and its report.
func paperDSP(seed int64) (*design.Design, error) {
	c := dsp.DefaultConfig()
	c.Seed = recordedSeed
	c.Channels = 1
	d, err := dsp.Generate(c)
	if err != nil || seed == recordedSeed {
		return d, err
	}
	shuffleDrivers(d, seed)
	return d, nil
}

// shuffleDrivers permutes the cells of the design's driver instances within
// each cell kind. Every pin of an instance moves together.
func shuffleDrivers(d *design.Design, seed int64) {
	var insts []string
	cellOf := make(map[string]*cells.Cell)
	for _, n := range d.Nets {
		for _, p := range n.Drivers {
			if _, ok := cellOf[p.Inst]; !ok {
				insts = append(insts, p.Inst)
				cellOf[p.Inst] = p.Cell
			}
		}
	}
	byKind := make(map[cells.Kind][]string)
	var kinds []cells.Kind
	for _, inst := range insts {
		k := cellOf[inst].Kind
		if byKind[k] == nil {
			kinds = append(kinds, k)
		}
		byKind[k] = append(byKind[k], inst)
	}
	rng := rand.New(rand.NewSource(seed))
	moved := make(map[string]*cells.Cell, len(insts))
	for _, k := range kinds {
		group := byKind[k]
		perm := rng.Perm(len(group))
		for i, inst := range group {
			moved[inst] = cellOf[group[perm[i]]]
		}
	}
	for _, n := range d.Nets {
		for i := range n.Drivers {
			n.Drivers[i].Cell = moved[n.Drivers[i].Inst]
		}
		for i := range n.Receivers {
			if c, ok := moved[n.Receivers[i].Inst]; ok {
				n.Receivers[i].Cell = c
			}
		}
	}
}

var workloads = []*workload{
	{name: "chip-materialized", design: chipDSP, streamCheck: true,
		cfg: xtverify.Config{Model: xtverify.FixedResistance, Workers: 1}},
	{name: "dsp-nonlinear", design: paperDSP,
		cfg: xtverify.Config{Model: xtverify.NonlinearCellModel, Workers: 1}},
	{name: "eco-daemon", eco: true, design: ecoDSP,
		cfg: xtverify.Config{Workers: 1}},
}

// ecoModel is the per-request driver model of the eco-daemon jobs, and
// ecoChainLen the number of chained repairs in one pass. A pass stores 31
// jobs after its base, so the base is still cached when the next pass
// starts half of the time.
const (
	ecoModel    = "library"
	ecoChainLen = 31
)

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// inputs are the files a run's generation step writes, under its work dir.
type inputs struct{ dir string }

func (in inputs) def() string     { return filepath.Join(in.dir, "design.def") }
func (in inputs) victims() string { return filepath.Join(in.dir, "victims.json") }

// generate writes the workload's design as DEF and, for eco-daemon, the
// chain's victims.
func generate(w *workload, seed int64, in inputs) error {
	d, err := w.design(seed)
	if err != nil {
		return fmt.Errorf("generate design: %w", err)
	}
	if err := os.MkdirAll(in.dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(in.def())
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := deflite.Write(bw, d); err != nil {
		f.Close()
		return fmt.Errorf("write def: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if !w.eco {
		return nil
	}
	vs := ecoVictims(d, seed, ecoChainLen)
	if len(vs) < ecoChainLen {
		return fmt.Errorf("only %d repairable victims, need %d", len(vs), ecoChainLen)
	}
	b, err := json.Marshal(vs)
	if err != nil {
		return err
	}
	return os.WriteFile(in.victims(), b, 0o644)
}

// strongerCell is the daemon's upsize policy: the same-kind library cell
// with the smallest strength above c's, or nil.
func strongerCell(c *cells.Cell) *cells.Cell {
	var best *cells.Cell
	for _, cand := range cells.Library() {
		if cand.Kind != c.Kind || cand.Strength <= c.Strength {
			continue
		}
		if best == nil || cand.Strength < best.Strength {
			best = cand
		}
	}
	return best
}

// ecoVictims picks up to n distinct victims in a seed-shuffled order: nets
// whose first driver has a stronger same-kind cell, at most one net per
// driver instance. An upsize-driver repair re-points every pin of the
// instance, so distinct instances keep each later repair applicable to a
// cell nothing earlier in the chain touched.
func ecoVictims(d *design.Design, seed int64, n int) []string {
	order := rand.New(rand.NewSource(seed)).Perm(len(d.Nets))
	used := make(map[string]bool)
	var out []string
	for _, i := range order {
		if len(out) == n {
			break
		}
		net := d.Nets[i]
		if len(net.Drivers) == 0 {
			continue
		}
		drv := net.Drivers[0]
		if used[drv.Inst] || strongerCell(drv.Cell) == nil {
			continue
		}
		used[drv.Inst] = true
		out = append(out, net.Name)
	}
	return out
}

// applyRepair is the daemon's upsize-driver edit, replayed from outside:
// the victim's first driver instance moves to the next stronger cell on
// every pin.
func applyRepair(d *design.Design, victim string) error {
	net, ok := d.NetByName(victim)
	if !ok || len(net.Drivers) == 0 {
		return fmt.Errorf("repair: no driver for %q", victim)
	}
	drv := net.Drivers[0]
	repl := strongerCell(drv.Cell)
	if repl == nil {
		return fmt.Errorf("repair: no stronger cell than %s", drv.Cell.Name)
	}
	for _, n := range d.Nets {
		for i := range n.Drivers {
			if n.Drivers[i].Inst == drv.Inst {
				n.Drivers[i].Cell = repl
			}
		}
		for i := range n.Receivers {
			if n.Receivers[i].Inst == drv.Inst {
				n.Receivers[i].Cell = repl
			}
		}
	}
	return nil
}

// reportText renders a report the way the daemon's report_text does:
// WriteText without the diagnostics block.
func reportText(rep *xtverify.Report) (string, error) {
	diag := rep.Diagnostics
	rep.Diagnostics = nil
	var sb strings.Builder
	err := rep.WriteText(&sb)
	rep.Diagnostics = diag
	return sb.String(), err
}

// digestText is the SHA-256 of a report text without the screening lines
// ("screening:" and "  screened "), the repository's A/B convention: a
// tighter screen that clears more clusters keeps the digest, while any
// change to a violation, a peak or a cluster statistic moves it.
func digestText(text string) string {
	h := sha256.New()
	for _, line := range strings.SplitAfter(text, "\n") {
		if strings.HasPrefix(line, "screening:") || strings.HasPrefix(line, "  screened ") {
			continue
		}
		h.Write([]byte(line))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// chainDigest is the SHA-256 over a chain's per-request digests, in order.
func chainDigest(digests []string) string {
	h := sha256.New()
	for _, d := range digests {
		h.Write([]byte(d))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// opResult is what one batch operation reports, for checks and metrics.
type opResult struct {
	nets, clusters, screened, violations, unverified, degraded int
	digest                                                     string
	metrics                                                    *xtverify.MetricsSnapshot
}

func (r opResult) outcome(err error) outcome {
	return outcome{Err: err, Unverified: r.unverified, Digest: r.digest}
}

// batchOp is one user operation: parse the DEF file, extract, cluster,
// screen, analyse and render the report. The returned duration covers
// exactly that; digesting happens after the clock stops.
func batchOp(ctx context.Context, path string, cfg xtverify.Config) (opResult, time.Duration, error) {
	start := time.Now()
	f, err := os.Open(path)
	if err != nil {
		return opResult{}, 0, err
	}
	defer f.Close()
	v, err := xtverify.NewVerifierFromDEF(bufio.NewReaderSize(f, 1<<20), cfg)
	if err != nil {
		return opResult{}, 0, err
	}
	rep, err := v.RunContext(ctx)
	if err != nil {
		return opResult{}, 0, err
	}
	text, err := reportText(rep)
	if err != nil {
		return opResult{}, 0, err
	}
	took := time.Since(start)
	res := opResult{
		nets:       rep.NetCount,
		clusters:   rep.Prune.ClustersAnalyzed,
		violations: len(rep.Violations),
		digest:     digestText(text),
	}
	if rep.Screening != nil {
		res.screened = rep.Screening.Screened
	}
	if d := rep.Diagnostics; d != nil {
		res.unverified, res.degraded, res.metrics = d.Unverified, d.Degraded, d.Metrics
	}
	return res, took, nil
}

// ecoServer is the daemon in-process: requests go straight to its handler,
// with no sockets.
type ecoServer struct {
	srv *daemon.Server
	h   http.Handler
}

// ecoReply is the part of a /v1/verify or /v1/reverify response the
// benchmark checks.
type ecoReply struct {
	status int
	resp   daemon.ReverifyResponse
	digest string
}

func (r ecoReply) outcome(err error) outcome {
	return outcome{Err: err, Status: r.status, Unverified: r.resp.Unverified,
		FullRecompute: r.resp.FullRecompute, Digest: r.digest}
}

// post sends one request and returns the handler's time for it; decoding the
// response happens after the clock stops.
func (s *ecoServer) post(path string, body []byte) (ecoReply, time.Duration, error) {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := time.Now()
	s.h.ServeHTTP(rec, req)
	took := time.Since(start)
	r := ecoReply{status: rec.Code}
	if rec.Code != http.StatusOK {
		return r, took, fmt.Errorf("%s: status %d: %s", path, rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &r.resp); err != nil {
		return r, took, fmt.Errorf("%s: decode response: %w", path, err)
	}
	r.digest = digestText(r.resp.ReportText)
	return r, took, nil
}

// ecoBaseBody is the base job: the design as inline DEF, library model.
func ecoBaseBody(def string) ([]byte, error) {
	return json.Marshal(daemon.VerifyRequest{DEF: def, Model: ecoModel})
}

// ecoRepairBody is one chained upsize-driver repair anchored on job.
func ecoRepairBody(job, victim string) ([]byte, error) {
	return json.Marshal(daemon.ReverifyRequest{BaseJobID: job,
		Repair: &daemon.RepairDelta{Victim: victim, Fix: "upsize-driver"}})
}

// ecoSetup is what a fresh daemon process pays before it is warm: New plus
// the cold base /v1/verify.
func ecoSetup(w *workload, body []byte) (*ecoServer, ecoReply, time.Duration, error) {
	start := time.Now()
	srv := daemon.New(daemon.Options{Engine: w.cfg})
	s := &ecoServer{srv: srv, h: srv.Handler()}
	created := time.Since(start)
	reply, took, err := s.post("/v1/verify", body)
	return s, reply, created + took, err
}
