// Command repro regenerates the paper's tables and figures.
//
// Usage:
//
//	repro [flags] <experiment>...
//
// where experiment is one of: table1 table2 table3 table4 fig3 fig4 fig5
// fig6 fig7 prune all. Scaled-down runs (for quick checks) use -scale.
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof endpoint
	"os"
	"strings"
	"time"

	"xtverify"
	"xtverify/internal/dsp"
	"xtverify/internal/exp"
	"xtverify/internal/glitch"
)

var (
	scale    = flag.Float64("scale", 1.0, "population scale factor (0 < scale <= 1); smaller runs fewer cases")
	seed     = flag.Int64("seed", 1999, "synthetic DSP seed")
	workers  = flag.Int("workers", 0, "parallel cluster workers for the verify and em experiments (0 = GOMAXPROCS)")
	strict   = flag.Bool("strict", false, "fail fast in the verify experiment instead of degrading")
	noScreen = flag.Bool("no-screen", false, "disable the rung-0 analytic screen in the verify experiment (A/B; screened clusters are conservative passes)")
	romCap   = flag.Int("rom-cache-cap", 0, "in-memory ROM cache capacity in entries for the verify experiment (0 = default)")
	metrics  = flag.String("metrics-out", "", "write the verify experiment's metrics snapshot to this JSON file")
	pprofOn  = flag.String("pprof", "", "serve expvar/pprof on this address (e.g. :6060); verify metrics appear live at /debug/vars under \"xtverify\"")

	// collector instruments the verify experiment when -metrics-out or
	// -pprof is given.
	collector *xtverify.MetricsCollector
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: repro [flags] <experiment>...\n")
		fmt.Fprintf(os.Stderr, "experiments: table1 table2 table3 table4 fig3 fig4 fig5 fig6 fig7 prune analytic screen-sweep reverify-sweep timing em prop verify all\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		flag.Usage()
		os.Exit(2)
	}
	if *metrics != "" || *pprofOn != "" {
		collector = xtverify.NewMetricsCollector()
	}
	if *pprofOn != "" {
		expvar.Publish("xtverify", expvar.Func(func() any { return collector.Snapshot() }))
		go func() {
			if err := http.ListenAndServe(*pprofOn, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof endpoint: %v\n", err)
			}
		}()
	}
	for _, a := range args {
		if a == "all" {
			args = []string{"table1", "table2", "table3", "table4", "prune", "analytic", "fig3", "fig4", "fig6", "fig7"}
			break
		}
	}
	for _, a := range args {
		t0 := time.Now()
		out, err := run(a)
		if err != nil {
			fmt.Fprintf(os.Stderr, "repro %s: %v\n", a, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("[%s completed in %.1fs]\n\n", a, time.Since(t0).Seconds())
	}
}

func scaled(n int) int {
	m := int(float64(n) * *scale)
	if m < 1 {
		m = 1
	}
	return m
}

func dspCfg() dsp.Config {
	cfg := dsp.DefaultConfig()
	cfg.Seed = *seed
	if *scale < 1 {
		cfg.Channels = scaled(cfg.Channels)
	}
	return cfg
}

// runEM is the electromigration current audit of the synthetic DSP at
// 200 MHz: the ten worst nets by RMS utilization and the totals.
func runEM() (string, error) {
	v, err := xtverify.NewVerifierFromDSP(xtverify.DSPConfig(dspCfg()), xtverify.Config{Workers: *workers})
	if err != nil {
		return "", err
	}
	rs, err := v.RunEM(xtverify.EMOptions{ActivityHz: 200e6})
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("Electromigration current audit (avg/RMS/peak vs width limits)\n")
	fmt.Fprintf(&b, "%-24s %-10s %9s %9s %9s\n", "net", "driver", "Iavg(mA)", "Irms(mA)", "Ipk(mA)")
	violations := 0
	for i, r := range rs {
		mark := ""
		if r.Violation {
			violations++
			mark = "  << VIOLATION"
		}
		if i < 10 {
			fmt.Fprintf(&b, "%-24s %-10s %9.3f %9.3f %9.3f%s\n", r.Net, r.DriverCell, r.IAvgMA, r.IRMSMA, r.IPeakMA, mark)
		}
	}
	fmt.Fprintf(&b, "nets audited: %d, violations: %d\n", len(rs), violations)
	return b.String(), nil
}

func accuracyCfg() exp.AccuracyConfig {
	cfg := exp.AccuracyConfig{}
	if *scale < 1 {
		cfg.LengthsPerCell = scaled(8)
	}
	return cfg
}

func allCellNames() []string {
	names := make([]string, 0, 53)
	for _, c := range cellLibrary() {
		names = append(names, c)
	}
	if *scale < 1 {
		names = names[:scaled(len(names))]
	}
	return names
}

func run(name string) (string, error) {
	switch name {
	case "table1":
		r, err := exp.RunTable1()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "table2":
		r, err := exp.RunTable2()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "table3":
		r, err := exp.RunModelAccuracy(glitch.ModelTimingLibrary, accuracyCfg(), allCellNames())
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "table4":
		r, err := exp.RunModelAccuracy(glitch.ModelNonlinear, accuracyCfg(), allCellNames())
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "fig3":
		r, err := exp.RunFig3(exp.Fig3Config{MaxClusters: scaled(113), DSP: dspCfg()})
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "fig4", "fig5":
		r, err := exp.RunFig45(exp.Fig3Config{MaxClusters: scaled(25), DSP: dspCfg()})
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "fig6":
		r, err := exp.RunFig67(true, exp.Fig67Config{MaxVictims: scaled(101), DSP: dspCfg()})
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "fig7":
		r, err := exp.RunFig67(false, exp.Fig67Config{MaxVictims: scaled(101), DSP: dspCfg()})
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "analytic":
		r, err := exp.RunAnalytic()
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "reverify-sweep":
		return runReverifySweep()
	case "screen-sweep":
		r, err := exp.RunScreenSweep(1.2, 0.10, xtverify.DefaultScreenSafetyFactor)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "timing":
		r, err := exp.RunTimingImpact(dspCfg(), scaled(200))
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "em":
		return runEM()
	case "prop":
		r, err := exp.RunPropagation(dspCfg(), scaled(60), 0.10)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "prune":
		r, err := exp.RunPruneStats(dspCfg())
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	case "verify":
		// Full-chip verification through the fault-tolerant parallel
		// engine, with the run diagnostics in the rendered report.
		v, err := xtverify.NewVerifierFromDSP(xtverify.DSPConfig(dspCfg()), xtverify.Config{
			Workers:          *workers,
			Strict:           *strict,
			Collector:        collector,
			ROMCacheCap:      *romCap,
			DisableScreening: *noScreen,
		})
		if err != nil {
			return "", err
		}
		rep, err := v.RunContext(context.Background())
		if err != nil {
			return "", err
		}
		var b strings.Builder
		if err := rep.WriteText(&b); err != nil {
			return "", err
		}
		if *metrics != "" {
			f, err := os.Create(*metrics)
			if err != nil {
				return "", err
			}
			if err := rep.Diagnostics.Metrics.WriteJSON(f); err != nil {
				f.Close()
				return "", err
			}
			if err := f.Close(); err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "wrote metrics to %s\n", *metrics)
		}
		return b.String(), nil
	default:
		return "", fmt.Errorf("unknown experiment %q", name)
	}
}
