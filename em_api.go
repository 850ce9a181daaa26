package xtverify

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"slices"

	"xtverify/internal/em"
)

// EMOptions configures the electromigration current audit.
type EMOptions struct {
	// ActivityHz is the assumed switching rate of every net (200 MHz if
	// zero).
	ActivityHz float64
}

// EMResult reports one net's driver-current measures against the 0.25 µm
// aluminum current-density limits.
type EMResult struct {
	Net        string
	DriverCell string
	// IAvgMA, IRMSMA and IPeakMA are milliamps over one switching cycle.
	IAvgMA, IRMSMA, IPeakMA float64
	// RMSUtilization is IRMS over the wire's RMS limit (≥1 is a violation).
	RMSUtilization float64
	// Violation marks any exceeded limit (average, RMS or peak).
	Violation bool
}

// RunEM audits every non-clock net's driver current (average, RMS, peak)
// against electromigration limits — the analysis the paper's Section 4.2
// cites as requiring waveform-accurate cell models. It runs one net per unit
// on the cluster executor, on Config.Workers and either source, with results
// independent of both. Results are sorted worst-first by RMS utilization,
// ties in net order. A failure returns the first failing net in net order.
func (v *Verifier) RunEM(opt EMOptions) ([]EMResult, error) {
	eopt := em.Options{ActivityHz: opt.ActivityHz}
	//xtlint:background RunEM has no context to plumb; the executor stops when the nets run out
	jobs, _, err := v.runClusters(context.Background(), runParams{workers: v.cfg.Workers, perNet: true},
		func(_ context.Context, u clusterUnit) *clusterResult {
			r, err := em.AnalyzeNet(u.par, u.cl.Victim, eopt)
			if err != nil {
				return &clusterResult{err: fmt.Errorf("em: net %s: %w", u.des.Nets[u.cl.Victim].Name, err)}
			}
			util := 0.0
			if r.WidthM > 0 {
				util = r.IRMSA / (r.Limits.RMSAPerM * r.WidthM)
			}
			return &clusterResult{em: &EMResult{
				Net:            r.Net,
				DriverCell:     r.DriverCell,
				IAvgMA:         r.IAvgA * 1e3,
				IRMSMA:         r.IRMSA * 1e3,
				IPeakMA:        r.IPeakA * 1e3,
				RMSUtilization: util,
				Violation:      r.Violated(),
			}}
		})
	if err != nil {
		return nil, err
	}
	out := make([]EMResult, len(jobs))
	for i, j := range jobs {
		out[i] = *j.res.em
	}
	// Stable: the jobs come in net order, so equal utilizations keep it.
	slices.SortStableFunc(out, func(a, b EMResult) int { return cmp.Compare(b.RMSUtilization, a.RMSUtilization) })
	return out, nil
}

// WriteEMText renders an EM report.
func WriteEMText(w io.Writer, rs []EMResult) error {
	if _, err := fmt.Fprintf(w, "%-24s %-10s %9s %9s %9s %8s\n",
		"net", "driver", "Iavg(mA)", "Irms(mA)", "Ipk(mA)", "RMSutil"); err != nil {
		return err
	}
	for _, r := range rs {
		mark := ""
		if r.Violation {
			mark = "  << VIOLATION"
		}
		fmt.Fprintf(w, "%-24s %-10s %9.3f %9.3f %9.3f %7.0f%%%s\n",
			r.Net, r.DriverCell, r.IAvgMA, r.IRMSMA, r.IPeakMA, 100*r.RMSUtilization, mark)
	}
	return nil
}
