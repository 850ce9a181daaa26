// The reverify-sweep experiment: quantify the incremental ECO splice against
// the full re-run it replaces. One base verification of the synthetic design,
// then a sweep of single-driver upsize repairs — each applied to a copy of the
// base design in memory (Verifier.UpsizeDriver) and re-verified both ways.
// The identity contract (spliced report == byte-identical cold run) is
// asserted on every repair, so the sweep doubles as an end-to-end check of the
// reverify layer at CLI scale.
package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"xtverify"
)

// renderIdentity is the report's identity surface (WriteText, no diagnostics).
func renderIdentity(rep *xtverify.Report) (string, error) {
	diag := rep.Diagnostics
	rep.Diagnostics = nil
	var sb strings.Builder
	err := rep.WriteText(&sb)
	rep.Diagnostics = diag
	return sb.String(), err
}

func runReverifySweep() (string, error) {
	ctx := context.Background()
	cfg := xtverify.Config{Model: xtverify.TimingLibrary, Workers: *workers}

	baseV, err := xtverify.NewVerifierFromDSP(xtverify.DSPConfig(dspCfg()), cfg)
	if err != nil {
		return "", err
	}

	t0 := time.Now()
	baseRep, err := baseV.RunContext(ctx)
	if err != nil {
		return "", err
	}
	baseMS := float64(time.Since(t0)) / float64(time.Millisecond)
	base, err := baseV.BaseRun(baseRep)
	if err != nil {
		return "", err
	}

	// Repair candidates: violated victims first, then the remaining analyzed
	// clusters, capped by -scale.
	var candidates []string
	seen := map[string]bool{}
	for _, viol := range baseRep.Violations {
		candidates, seen[viol.Victim] = append(candidates, viol.Victim), true
	}
	for _, out := range baseRep.Diagnostics.Clusters {
		if !seen[out.Victim] {
			candidates = append(candidates, out.Victim)
		}
	}
	limit := scaled(8)
	var b strings.Builder
	fmt.Fprintf(&b, "reverify sweep: %d clusters, base full run %.0f ms, up to %d single-driver repairs\n",
		base.Entries(), baseMS, limit)
	fmt.Fprintf(&b, "%-24s %10s %10s %8s %8s %9s\n", "victim", "full ms", "splice ms", "reused", "recomp", "speedup")

	var fullSum, spliceSum float64
	repairs := 0
	for _, victim := range candidates {
		if repairs >= limit {
			break
		}
		t0 = time.Now()
		coldV, err := baseV.UpsizeDriver(victim, "", cfg)
		if err != nil {
			continue // no stronger cell in the library: not repairable this way
		}
		coldRep, err := coldV.RunContext(ctx)
		if err != nil {
			return "", err
		}
		fullMS := float64(time.Since(t0)) / float64(time.Millisecond)

		t0 = time.Now()
		v, err := baseV.UpsizeDriver(victim, "", cfg)
		if err != nil {
			return "", err
		}
		rep, stats, err := v.ReverifyContext(ctx, base)
		if err != nil {
			return "", err
		}
		spliceMS := float64(time.Since(t0)) / float64(time.Millisecond)

		want, err := renderIdentity(coldRep)
		if err != nil {
			return "", err
		}
		got, err := renderIdentity(rep)
		if err != nil {
			return "", err
		}
		if got != want {
			return "", fmt.Errorf("identity violated: spliced report for %s differs from cold run", victim)
		}

		fmt.Fprintf(&b, "%-24s %10.0f %10.1f %8d %8d %8.1fx\n",
			victim, fullMS, spliceMS, stats.ClustersReused, stats.ClustersRecomputed, fullMS/spliceMS)
		fullSum += fullMS
		spliceSum += spliceMS
		repairs++
	}
	if repairs == 0 {
		return "", fmt.Errorf("no repairable victims in the design")
	}
	fmt.Fprintf(&b, "mean over %d repairs: full %.1f ms, splice %.1f ms, speedup %.1fx (all spliced reports byte-identical to cold runs)\n",
		repairs, fullSum/float64(repairs), spliceSum/float64(repairs), fullSum/spliceSum)
	return b.String(), nil
}
