// Command xtverify runs full-chip crosstalk verification on the synthetic
// DSP design and prints the violation report. It demonstrates the complete
// flow of the library: generation → extraction → (optional STA) → pruning →
// SyMPVL reduction → nonlinear transient → report.
//
// Usage:
//
//	xtverify [flags]
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof endpoint
	"os"
	"os/signal"
	"time"

	"xtverify"
)

func main() { os.Exit(run()) }

// run is main with an exit code instead of os.Exit, so deferred cleanup
// (the pprof server's graceful shutdown in particular) actually runs.
func run() int {
	var (
		model    = flag.String("model", "nonlinear", "driver model: fixed | library | nonlinear")
		fixedR   = flag.Float64("r", 1000, "drive resistance for -model=fixed (ohms)")
		thresh   = flag.Float64("threshold", 0.10, "report glitches above this fraction of Vdd")
		capRatio = flag.Float64("capratio", 0.02, "pruning capacitance-ratio threshold")
		windows  = flag.Bool("windows", false, "use static-timing windows to exclude aggressors")
		logic    = flag.Bool("logic", false, "use complementary-pair logic correlation")
		channels = flag.Int("channels", 2, "synthetic DSP channels")
		tracks   = flag.Int("tracks", 105, "tracks per channel")
		seed     = flag.Int64("seed", 1999, "generator seed")
		spefOut  = flag.String("spef", "", "also write extracted parasitics to this SPEF file")
		vlogOut  = flag.String("verilog", "", "also write the gate-level netlist to this Verilog file")
		defOut   = flag.String("def", "", "also write the physical design to this DEF file")
		defIn    = flag.String("indef", "", "load the design from this DEF file instead of generating one")
		emFlag   = flag.Bool("em", false, "also run the electromigration current audit")
		timFlag  = flag.Bool("timing", false, "also run the coupled-delay timing impact report")
		workers  = flag.Int("workers", 0, "parallel cluster workers (0 = GOMAXPROCS)")
		strict   = flag.Bool("strict", false, "fail fast on the first cluster error instead of degrading")
		noScreen = flag.Bool("no-screen", false, "disable the rung-0 analytic screen (A/B timing; screened clusters are conservative passes)")
		screenSF = flag.Float64("screen-safety", 0, "rung-0 screening safety factor (0 = default)")
		cluTO    = flag.Duration("cluster-timeout", 0, "per-cluster analysis deadline (0 = none; per-attempt when -rung-retries > 0)")
		retries  = flag.Int("rung-retries", 0, "retries per fallback rung for transiently timed-out clusters")
		romCap   = flag.Int("rom-cache-cap", 0, "in-memory ROM cache capacity in entries (0 = default)")
		romDir   = flag.String("rom-store", "", "directory for the disk-persistent ROM cache (empty = in-memory only)")
		stream   = flag.Bool("stream", false, "stream the design through bounded-memory ingest: clusters are verified while the input is still being read (identical report; incompatible with -windows and the design writers)")
		streamSl = flag.Float64("stream-slack", 0, "frontier slack in µm for -stream (0 = default)")
		metrics  = flag.String("metrics-out", "", "write the run's metrics snapshot to this JSON file")
		pprofOn  = flag.String("pprof", "", "serve expvar/pprof on this address (e.g. :6060); metrics appear live at /debug/vars under \"xtverify\"")
	)
	flag.Parse()

	cfg := xtverify.Config{
		FixedOhms:             *fixedR,
		CapRatioThreshold:     *capRatio,
		GlitchThresholdFrac:   *thresh,
		UseTimingWindows:      *windows,
		UseLogicCorrelation:   *logic,
		Workers:               *workers,
		Strict:                *strict,
		ClusterTimeout:        *cluTO,
		RungRetries:           *retries,
		ROMCacheCap:           *romCap,
		StreamIngest:          *stream,
		StreamFrontierSlackUM: *streamSl,
		DisableScreening:      *noScreen,
		ScreenSafetyFactor:    *screenSF,
	}
	if *stream {
		for _, bad := range []struct {
			set  bool
			name string
		}{
			{*windows, "-windows"}, {*spefOut != "", "-spef"},
			{*vlogOut != "", "-verilog"}, {*defOut != "", "-def"},
		} {
			if bad.set {
				fmt.Fprintf(os.Stderr, "%s needs the materialized design and cannot be combined with -stream\n", bad.name)
				return 2
			}
		}
	}
	switch *model {
	case "fixed":
		cfg.Model = xtverify.FixedResistance
	case "library":
		cfg.Model = xtverify.TimingLibrary
	case "nonlinear":
		cfg.Model = xtverify.NonlinearCellModel
	default:
		fmt.Fprintf(os.Stderr, "unknown model %q\n", *model)
		return 2
	}
	if *romDir != "" {
		store, err := xtverify.OpenROMStore(*romDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		cfg.ROMStore = store
	}
	var collector *xtverify.MetricsCollector
	if *metrics != "" || *pprofOn != "" {
		collector = xtverify.NewMetricsCollector()
		cfg.Collector = collector
	}
	if *pprofOn != "" {
		// Live snapshots under /debug/vars, profiles under /debug/pprof —
		// on a real server we can stop, not a fire-and-forget goroutine.
		expvar.Publish("xtverify", expvar.Func(func() any { return collector.Snapshot() }))
		pprofSrv := &http.Server{Addr: *pprofOn, Handler: http.DefaultServeMux}
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "pprof endpoint: %v\n", err)
			}
		}()
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = pprofSrv.Shutdown(sctx)
		}()
	}
	dspCfg := xtverify.DefaultDSPConfig()
	dspCfg.Seed = *seed
	dspCfg.Channels = *channels
	dspCfg.TracksPerChannel = *tracks

	var (
		v   *xtverify.Verifier
		in  *os.File
		err error
	)
	if *defIn != "" {
		if in, err = os.Open(*defIn); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		// Under -stream the reader is consumed during every run, so the
		// file must stay open until the last one finishes.
		defer in.Close()
		v, err = xtverify.NewVerifierFromDEF(in, cfg)
	} else {
		v, err = xtverify.NewVerifierFromDSP(dspCfg, cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	writeVia := func(path string, fn func(io.Writer) error, what string) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s to %s\n", what, path)
		return nil
	}
	if err := writeVia(*vlogOut, v.WriteVerilog, "netlist"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := writeVia(*defOut, v.WriteDEF, "physical design"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := writeVia(*spefOut, v.WriteSPEF, "parasitics"); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// Interrupt (Ctrl-C) cancels the run promptly instead of killing a
	// half-finished analysis.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	rep, err := v.RunContext(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := rep.WriteText(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if *metrics != "" {
		f, err := os.Create(*metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := rep.Diagnostics.Metrics.WriteJSON(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("wrote metrics to %s\n", *metrics)
	}
	// A streamed DEF verifier reads its input once per run, so every run
	// after the first starts from a rewound file.
	rewind := func() error {
		if in == nil {
			return nil
		}
		_, err := in.Seek(0, io.SeekStart)
		return err
	}
	if *timFlag {
		if err := rewind(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		impacts, err := v.RunTimingImpactContext(ctx, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println("\nworst coupling-induced delay changes:")
		if err := xtverify.WriteTimingText(os.Stdout, impacts, 10); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *emFlag {
		if err := rewind(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		rs, err := v.RunEM(xtverify.EMOptions{})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if len(rs) > 10 {
			rs = rs[:10]
		}
		fmt.Println("\nworst electromigration utilizations:")
		if err := xtverify.WriteEMText(os.Stdout, rs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if len(rep.Violations) > 0 {
		return 3 // nonzero exit signals signal-integrity violations
	}
	return 0
}
