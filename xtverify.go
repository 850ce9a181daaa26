// Package xtverify is a chip-level crosstalk (signal-integrity) verification
// library for deep-submicron digital designs, reproducing the methodology of
// Ye, Chang, Feldmann, Nagaraj, Chadha and Cano, "Chip-Level Verification
// for Parasitic Coupling Effects in Deep-Submicron Digital Designs"
// (DATE 1999).
//
// The flow:
//
//  1. a routed design's parasitics are extracted into distributed RC
//     networks with coupling capacitors (a synthetic extractor and a SPEF
//     subset are included);
//  2. weak couplings are pruned by capacitance ratio — and optionally by
//     static-timing window overlap — leaving small coupled clusters;
//  3. each cluster's linear interconnect is compressed with SyMPVL
//     (symmetric matrix-Padé via block Lanczos) model order reduction;
//  4. pre-characterized driver cell models (linear timing-library
//     resistances or nonlinear I–V models) are attached as terminations and
//     the reduced system is integrated with a Newton scheme whose Jacobian
//     is a diagonal-plus-rank-k matrix;
//  5. glitch peaks and coupling-aware delays are reported per victim net.
//
// A classical SPICE-level engine is included as the golden reference, and
// the repository's benchmarks regenerate every table and figure of the
// paper's evaluation (see EXPERIMENTS.md).
package xtverify

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"xtverify/internal/cells"
	"xtverify/internal/deflite"
	"xtverify/internal/design"
	"xtverify/internal/devices"
	"xtverify/internal/dsp"
	"xtverify/internal/extract"
	"xtverify/internal/spef"
	"xtverify/internal/sta"
	"xtverify/internal/verilog"
)

// Vdd is the supply voltage of the bundled 0.25 µm technology.
const Vdd = devices.Vdd025

// DriverModel selects how driving cells are modeled during analysis.
type DriverModel int

// Driver model choices (paper Section 4).
const (
	// DriverModelUnset is the zero value; setDefaults resolves it to
	// NonlinearCellModel, the paper's most accurate configuration.
	DriverModelUnset DriverModel = iota
	// FixedResistance models every driver as one fixed linear resistor.
	FixedResistance
	// TimingLibrary deduces a per-cell linear resistance from NLDM-style
	// characterization tables (Section 4.1).
	TimingLibrary
	// NonlinearCellModel uses pre-characterized nonlinear I–V driver models
	// (Section 4.2), the paper's most accurate configuration.
	NonlinearCellModel
)

// kind maps the public DriverModel onto the driver-model enum the glitch
// engine and the rung-0 screen share. The two enums are numbered differently
// (DriverModel reserves 0 for the unset sentinel), so a direct cast would be
// wrong.
func (m DriverModel) kind() cells.DriverModel {
	switch m {
	case FixedResistance:
		return cells.DriverFixedR
	case TimingLibrary:
		return cells.DriverTimingLibrary
	default:
		return cells.DriverNonlinear
	}
}

// Config tunes the verification flow.
type Config struct {
	// Model selects the driver model; NonlinearCellModel by default.
	Model DriverModel
	// FixedOhms is the resistance for FixedResistance mode (default 1 kΩ).
	FixedOhms float64
	// CapRatioThreshold controls pruning (default 0.02).
	CapRatioThreshold float64
	// UseTimingWindows enables STA-based aggressor exclusion/alignment.
	UseTimingWindows bool
	// UseLogicCorrelation enables complementary-pair correlation.
	UseLogicCorrelation bool
	// GlitchThresholdFrac flags victims whose glitch exceeds this fraction
	// of Vdd (default 0.10, the paper's reporting floor).
	GlitchThresholdFrac float64
	// TransistorRecheck re-simulates every flagged violation with the
	// transistor-level SPICE reference engine and records the confirmed
	// peak. This implements the paper's stated future work ("extending it
	// to transistor-level crosstalk analysis for higher accuracy") as a
	// second-pass audit of the fast model-based screen.
	TransistorRecheck bool
	// Workers bounds RunContext's cluster-analysis parallelism; 0 means
	// GOMAXPROCS. Run is always serial.
	Workers int
	// Strict makes RunContext fail fast on the first cluster error (Run's
	// historical behavior) instead of walking the fallback ladder.
	Strict bool
	// ClusterTimeout is RunContext's per-cluster analysis deadline; 0 means
	// no deadline. A cluster that exceeds it is marked unverified with
	// ErrTimeout rather than stalling the run. With RungRetries > 0 the
	// deadline applies per attempt (each retry gets a fresh budget) instead
	// of once per cluster.
	ClusterTimeout time.Duration
	// RungRetries makes RunContext re-attempt a fallback-ladder rung up to
	// this many extra times when it fails transiently (ErrTimeout — a
	// cluster starved under load), with exponential backoff, before the
	// ladder moves on. 0 disables retries (the historical behavior, with
	// one ClusterTimeout budget spanning all rungs). Cancellation
	// (ErrCanceled) and structural numerics failures are never retried.
	RungRetries int
	// RungRetryBackoff is the base delay between rung retries, doubled per
	// retry; 0 means DefaultRungRetryBackoff. Only meaningful with
	// RungRetries > 0.
	RungRetryBackoff time.Duration
	// ROMCacheCap bounds the in-memory ROM cache (entries, LRU-evicted);
	// 0 means DefaultROMCacheCap. Ignored when a SharedROMCache is
	// supplied.
	ROMCacheCap int
	// SharedROMCache, when non-nil, is used instead of a fresh per-run
	// cache, so reduced models stay warm across runs — the verification
	// daemon shares one cache across every job. Diagnostics cache counts
	// are reported as this run's delta; with concurrent runs sharing one
	// cache the attribution is approximate (totals remain exact).
	SharedROMCache *ROMCache
	// ROMStore, when non-nil, attaches a disk-persistent second cache
	// level behind the in-memory ROM cache: models computed once are
	// written through (crash-safe temp-file+rename) and survive process
	// restarts, keyed by the same structural fingerprints. Corrupted or
	// wrong-version entries are discarded and recomputed, never trusted
	// (see cache_corrupt_discarded in the metrics snapshot). The store
	// never changes any reported number: persisted models round-trip
	// bit-exactly.
	ROMStore *ROMStore
	// DisableScreening turns off the rung-0 analytic screen: every cluster
	// then pays for reduction + transient exactly as before the screen
	// existed, and reports are byte-identical to that historical output.
	// With screening on (the default) reports differ only by the documented
	// screening section — screened clusters are provably below the noise
	// margin, so the violation list never changes.
	DisableScreening bool
	// ScreenSafetyFactor inflates the analytic bound before comparing it to
	// the noise margin: a cluster is screened only when
	// bound·(1+ScreenSafetyFactor) < GlitchThresholdFrac·Vdd. Zero and
	// negative values mean DefaultScreenSafetyFactor (a negative factor
	// would eat into the bound's conservatism, so it is never honored). The bound is conservative by construction;
	// the factor adds engineering margin on top and is recorded in the
	// report's screening section.
	ScreenSafetyFactor float64
	// reference selects the slow reference paths the byte-identity tests
	// compare the production engine against: noROMCache turns off
	// reduced-model memoization, oneShot the prepared-transient layer (every
	// scenario re-runs the termination fold and eigendecomposition, and the
	// glitch polarities run sequentially). Neither changes a reported
	// number. Only baseGlitchOptions reads it.
	reference struct{ noROMCache, oneShot bool }
	// StreamIngest switches the verifier to the bounded-memory streaming
	// pipeline (stream_ingest.go): nets are parsed, extracted and clustered
	// incrementally, and each coupled cluster is handed to the worker pool
	// the moment it closes — verification overlaps ingest and peak memory is
	// O(largest cluster + frontier) instead of O(chip). Reports are
	// byte-identical to a materialized run, and RunTimingImpact, RunEM,
	// BaseRun and Reverify, which run on the same cluster executor, return
	// identical results; each run re-reads the source (rewind a DEF reader
	// between runs). Requires (approximately) ascending-y net order in the
	// input; incompatible with UseTimingWindows. The seven APIs that need the
	// whole design in memory fail with ErrStreamIngest: WriteSPEF,
	// WriteVerilog, WriteDEF, RefineTimingWindows, TraceGlitch, AdviseRepair
	// and UpsizeDriver.
	StreamIngest bool
	// StreamFrontierSlackUM is the tolerated out-of-orderness (µm) of
	// streamed net arrival; 0 means extract.DefaultFrontierSlackUM. Only
	// meaningful with StreamIngest.
	StreamFrontierSlackUM float64
	// Collector, when non-nil, turns on the observability layer: per-phase
	// span timing and engine counters are gathered during the run and
	// aggregated into Diagnostics.Metrics. Create one fresh collector per
	// run (NewMetricsCollector); nil disables instrumentation at near-zero
	// cost. The collector never changes any reported number, and counter
	// totals are identical between serial and parallel runs.
	Collector *MetricsCollector
}

func (c *Config) setDefaults() {
	if c.FixedOhms == 0 {
		c.FixedOhms = cells.DefaultFixedOhms
	}
	if c.CapRatioThreshold == 0 {
		c.CapRatioThreshold = 0.02
	}
	if c.GlitchThresholdFrac == 0 {
		c.GlitchThresholdFrac = 0.10
	}
	if c.ScreenSafetyFactor <= 0 {
		// Negative factors would deflate the bound below its conservative
		// construction; fold them into the default with the unset case.
		c.ScreenSafetyFactor = DefaultScreenSafetyFactor
	}
	// Default to the paper's best model. (DriverModelUnset exists precisely
	// so a zero-valued Config can be told apart from an explicit
	// FixedResistance request.)
	if c.Model == DriverModelUnset {
		c.Model = NonlinearCellModel
	}
}

// Violation is one victim net whose predicted glitch exceeds the reporting
// threshold.
type Violation struct {
	// Victim is the net name.
	Victim string
	// PeakV is the signed glitch peak (volts); positive = rising glitch.
	PeakV float64
	// FracVdd is |PeakV|/Vdd.
	FracVdd float64
	// Aggressors counts the active aggressors.
	Aggressors int
	// LatchInput marks victims feeding sequential elements (the riskiest
	// class: a glitch there can be captured as wrong state).
	LatchInput bool
	// ConfirmedPeakV is the transistor-level SPICE peak when
	// Config.TransistorRecheck is enabled (0 otherwise); Confirmed reports
	// whether the recheck also exceeded the threshold.
	ConfirmedPeakV float64
	// Confirmed is valid only with TransistorRecheck.
	Confirmed bool
	// Propagates reports whether the glitch exceeds the most sensitive
	// receiver's unity-gain corner (its DC noise margin), i.e. whether the
	// disturbance is amplified downstream rather than filtered — the
	// "false switching" condition of the paper's Section 1.
	Propagates bool
}

// PruneSummary reports clustering statistics (paper Section 3).
type PruneSummary struct {
	RawMeanClusterNets    float64
	RawMaxClusterNets     int
	PrunedMeanClusterNets float64
	PrunedMaxClusterNets  int
	ClustersAnalyzed      int
}

// ScreenedCluster records one cluster cleared by the rung-0 screen.
type ScreenedCluster struct {
	// Victim is the cluster's victim net name.
	Victim string
	// BoundV is the conservative worst-case glitch magnitude bound that
	// cleared it (both polarities covered).
	BoundV float64
}

// ScreeningSummary is the report's rung-0 screening section, present
// whenever screening ran (nil with Config.DisableScreening). Screened
// clusters are provably below the noise margin, so the section is purely
// additive: the violation list and every other report line are identical to
// a run without screening.
type ScreeningSummary struct {
	// Screened counts clusters cleared at rung 0.
	Screened int
	// SafetyFactor is the configured bound inflation.
	SafetyFactor float64
	// MarginV is the noise margin (GlitchThresholdFrac·Vdd) screened
	// against.
	MarginV float64
	// Clusters lists the screened clusters with their bounds, in victim
	// (cluster) order.
	Clusters []ScreenedCluster
}

// Report is the outcome of a full-chip verification.
type Report struct {
	DesignName string
	NetCount   int
	Violations []Violation
	Prune      PruneSummary
	// AnalyzedVictims is the number of victims that were simulated.
	AnalyzedVictims int
	// Screening is the rung-0 analytic screening section, nil when
	// screening was disabled.
	Screening *ScreeningSummary
	// Diagnostics describes how the fault-tolerant engine fared (worker
	// count, degraded and unverified clusters, wall time). Populated by
	// Run and RunContext.
	Diagnostics *Diagnostics
	// index is the reverify index a splice built for this report, the
	// signatures and outcomes it just produced; BaseRun returns it to the
	// verifier that spliced, nil for any other report (reverify.go).
	index *BaseRun
}

// WriteText renders a human-readable report.
func (r *Report) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "crosstalk verification report: %s (%d nets)\n", r.DesignName, r.NetCount); err != nil {
		return err
	}
	fmt.Fprintf(w, "clusters: raw mean %.1f nets (max %d) -> pruned mean %.1f (max %d), %d analyzed\n",
		r.Prune.RawMeanClusterNets, r.Prune.RawMaxClusterNets,
		r.Prune.PrunedMeanClusterNets, r.Prune.PrunedMaxClusterNets, r.Prune.ClustersAnalyzed)
	fmt.Fprintf(w, "victims simulated: %d, violations: %d\n", r.AnalyzedVictims, len(r.Violations))
	for _, v := range r.Violations {
		flag := ""
		if v.LatchInput {
			flag = " [latch input]"
		}
		if v.Propagates {
			flag += " [propagates]"
		}
		confirm := ""
		if v.ConfirmedPeakV != 0 {
			state := "confirmed"
			if !v.Confirmed {
				state = "NOT confirmed"
			}
			confirm = fmt.Sprintf(" — transistor-level %+.3f V (%s)", v.ConfirmedPeakV, state)
		}
		fmt.Fprintf(w, "  %-24s peak %+.3f V (%.0f%% Vdd) from %d aggressors%s%s\n",
			v.Victim, v.PeakV, 100*v.FracVdd, v.Aggressors, flag, confirm)
	}
	// The screening section is the one documented difference between a
	// screening-on and a -no-screen report: every line of it carries a
	// greppable prefix ("screening:" / "  screened ") so A/B comparisons can
	// filter it out and assert the rest byte-identical.
	if s := r.Screening; s != nil {
		fmt.Fprintf(w, "screening: %d/%d clusters cleared at rung 0 (bound x%.2f < margin %.3f V)\n",
			s.Screened, r.Prune.ClustersAnalyzed, 1+s.SafetyFactor, s.MarginV)
		for _, c := range s.Clusters {
			fmt.Fprintf(w, "  screened %-24s bound %.4f V\n", c.Victim, c.BoundV)
		}
	}
	if d := r.Diagnostics; d != nil {
		mode := "degraded (fallback ladder)"
		if d.Strict {
			mode = "strict (fail-fast)"
		}
		fmt.Fprintf(w, "diagnostics: %d workers, %s mode, %v wall time\n", d.Workers, mode, d.WallTime.Round(time.Millisecond))
		fmt.Fprintf(w, "  clusters verified: %d (%d via fallback), unverified: %d\n", d.Verified, d.Degraded, d.Unverified)
		for _, c := range d.Clusters {
			if c.Err == nil && c.Stage != StageReduced && c.Stage != StageScreened {
				fmt.Fprintf(w, "  %-24s verified via %s after %d attempt(s) in %v\n",
					c.Victim, c.Stage, c.Attempts, c.WallTime.Round(time.Microsecond))
			}
			if c.RecheckErr != nil {
				fmt.Fprintf(w, "  %-24s transistor recheck failed: %v\n", c.Victim, c.RecheckErr)
			}
		}
		if worst := d.WorstUnverified(5); len(worst) > 0 {
			fmt.Fprintf(w, "  worst unverified victims (by retained coupling):\n")
			for _, c := range worst {
				fmt.Fprintf(w, "    %-22s %.1f fF coupling — %v\n", c.Victim, c.CouplingF*1e15, c.Err)
			}
		}
	}
	return nil
}

// Verifier runs the flow against one design.
type Verifier struct {
	cfg Config
	des *design.Design
	par *extract.Parasitics
	// src, when non-nil, marks a streaming verifier (Config.StreamIngest):
	// des and par stay nil, and the engine's cluster source is the streamed
	// one, which ingests nets from src on every run. Otherwise the engine
	// uses the materialized source, which clusters des and par. APIs that
	// need the materialized design guard with requireMaterialized.
	src streamSource
	// faultHook, when set (tests only), is invoked before each cluster
	// attempt and may inject an error or panic to exercise the ladder.
	faultHook func(victim string, stage FallbackStage) error
	// staleMu guards stale: victims whose results in this verifier's reports
	// were superseded by an incremental reverify splice (reverify.go).
	// AdviseRepair refuses them with ErrStaleReport.
	staleMu sync.Mutex
	stale   map[string]bool
}

// NewVerifierFromDSP generates the synthetic DSP design (the Section 5
// stand-in) and prepares it for verification. cfg may be zero-valued.
func NewVerifierFromDSP(dspCfg DSPConfig, cfg Config) (*Verifier, error) {
	cfg.setDefaults()
	if cfg.StreamIngest {
		return newStreamVerifier(dspStreamSource{cfg: dsp.Config(dspCfg)}, cfg)
	}
	d, err := dsp.Generate(dsp.Config(dspCfg))
	if err != nil {
		return nil, err
	}
	return newVerifier(d, cfg)
}

// DSPConfig mirrors the synthetic DSP generator parameters.
type DSPConfig = dspConfigAlias

type dspConfigAlias = dsp.Config

// DefaultDSPConfig returns the paper-scale synthetic DSP configuration.
func DefaultDSPConfig() DSPConfig { return dsp.DefaultConfig() }

func newVerifier(d *design.Design, cfg Config) (*Verifier, error) {
	par, err := extract.Extract(d, extract.Tech025())
	if err != nil {
		return nil, err
	}
	if cfg.UseTimingWindows {
		if err := sta.Annotate(d, par); err != nil {
			return nil, err
		}
	}
	return &Verifier{cfg: cfg, des: d, par: par}, nil
}

// WriteSPEF serializes the extracted parasitics in SPEF form.
func (v *Verifier) WriteSPEF(w io.Writer) error {
	if err := v.requireMaterialized("WriteSPEF"); err != nil {
		return err
	}
	return spef.Write(w, v.par)
}

// WriteVerilog serializes the design's gate-level connectivity as
// structural Verilog (the netlist-side companion to the SPEF parasitics).
func (v *Verifier) WriteVerilog(w io.Writer) error {
	if err := v.requireMaterialized("WriteVerilog"); err != nil {
		return err
	}
	return verilog.Write(w, v.des)
}

// WriteDEF serializes the design's physical view (placements and routed
// wiring) in the DEF subset.
func (v *Verifier) WriteDEF(w io.Writer) error {
	if err := v.requireMaterialized("WriteDEF"); err != nil {
		return err
	}
	return deflite.Write(w, v.des)
}

// NewVerifierFromDEF loads a physical design from a DEF-subset stream (as
// produced by WriteDEF — placements, pin connections, routed segments) and
// prepares it for verification against the bundled technology and cell
// library.
func NewVerifierFromDEF(r io.Reader, cfg Config) (*Verifier, error) {
	cfg.setDefaults()
	if cfg.StreamIngest {
		// The reader is consumed during each Run, not here — it must stay
		// open (and be rewound between runs) for the verifier's lifetime.
		return newStreamVerifier(defStreamSource{r: r}, cfg)
	}
	d, err := deflite.Read(r)
	if err != nil {
		return nil, err
	}
	return newVerifier(d, cfg)
}

// Run performs full-chip glitch verification: every eligible victim net is
// clustered, reduced and simulated for both glitch polarities. Run is the
// strict mode: serial, fail-fast on the first cluster error, no fallback
// ladder — exactly the historical behavior. See RunContext (engine.go) for
// the parallel, fault-tolerant variant.
func (v *Verifier) Run() (*Report, error) {
	//xtlint:background Run is the historical strict-serial entry; it delegates to the shared engine, not to a RunContext wrapper
	rep, _, err := v.runEngine(context.Background(), runParams{workers: 1, strict: true})
	return rep, err
}
