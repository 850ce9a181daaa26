package xtverify

import (
	"context"
	"math"
	"strings"
	"testing"

	"xtverify/internal/deflite"
)

// renamedDEF re-reads defText, renames every net through rename, and
// renders the result as DEF again. It also returns how many nets changed
// name and how many of those are clock nets.
func renamedDEF(t *testing.T, defText string, rename func(string) string) (out string, renamed, clocks int) {
	t.Helper()
	d, err := deflite.Read(strings.NewReader(defText))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range d.Nets {
		if name := rename(n.Name); name != n.Name {
			n.Name = name
			renamed++
			if n.ClockNet {
				clocks++
			}
		}
	}
	var sb strings.Builder
	if err := deflite.Write(&sb, d); err != nil {
		t.Fatal(err)
	}
	return sb.String(), renamed, clocks
}

// TestMetamorphicRename: a net's name is a label, never an analysis input.
// On BenchmarkReverify's design, renaming every net that is no cluster's
// victim leaves the report byte-identical and lets a splice against the
// original reuse every cluster (aggressor names are kept out of the
// signature); prefixing every net name leaves the prune summary, and each
// violation's peak and each screened cluster's bound, bit-equal under the
// new name.
func TestMetamorphicRename(t *testing.T) {
	baseDEF, cfg := reverifyBenchDEF(t)
	baseV, err := NewVerifierFromDEF(strings.NewReader(baseDEF), cfg)
	if err != nil {
		t.Fatal(err)
	}
	baseRep, err := baseV.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	victims := make(map[string]bool, len(baseRep.Diagnostics.Clusters))
	for _, out := range baseRep.Diagnostics.Clusters {
		victims[out.Victim] = true
	}
	run := func(t *testing.T, defText string) *Report {
		t.Helper()
		v, err := NewVerifierFromDEF(strings.NewReader(defText), cfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := v.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	t.Run("non-victims", func(t *testing.T) {
		defText, renamed, clocks := renamedDEF(t, baseDEF, func(name string) string {
			if victims[name] {
				return name
			}
			return name + "_eco"
		})
		if renamed == 0 || clocks == 0 {
			t.Fatalf("renamed %d nets, %d of them clocks; want every non-victim, clock spine included", renamed, clocks)
		}
		t.Logf("renamed %d non-victim nets (%d clocks); %d clusters", renamed, clocks, len(victims))
		rep := run(t, defText)
		want := identityText(t, baseRep)
		if got := identityText(t, rep); got != want {
			t.Errorf("renaming non-victims changed the report:\n--- base ---\n%s--- renamed ---\n%s", want, got)
		}
		base, err := baseV.BaseRun(baseRep)
		if err != nil {
			t.Fatal(err)
		}
		editV, err := NewVerifierFromDEF(strings.NewReader(defText), cfg)
		if err != nil {
			t.Fatal(err)
		}
		spliced, stats, err := editV.Reverify(base)
		if err != nil {
			t.Fatal(err)
		}
		if stats.ClustersReused != base.Entries() || stats.ClustersRecomputed != 0 {
			t.Errorf("splice of a rename reused %d and recomputed %d of %d clusters; want all reused",
				stats.ClustersReused, stats.ClustersRecomputed, base.Entries())
		}
		if got := identityText(t, spliced); got != want {
			t.Errorf("spliced rename differs from the base report:\n--- base ---\n%s--- spliced ---\n%s", want, got)
		}
	})

	t.Run("prefix-all", func(t *testing.T) {
		const prefix = "top/"
		defText, renamed, _ := renamedDEF(t, baseDEF, func(name string) string { return prefix + name })
		rep := run(t, defText)
		if renamed != rep.NetCount {
			t.Fatalf("renamed %d of %d nets", renamed, rep.NetCount)
		}
		if rep.Prune != baseRep.Prune {
			t.Errorf("prune summary %+v, want %+v", rep.Prune, baseRep.Prune)
		}
		peaks := make(map[string]float64, len(baseRep.Violations))
		for _, viol := range baseRep.Violations {
			peaks[prefix+viol.Victim] = viol.PeakV
		}
		bounds := make(map[string]float64, len(baseRep.Screening.Clusters))
		for _, c := range baseRep.Screening.Clusters {
			bounds[prefix+c.Victim] = c.BoundV
		}
		if len(peaks) == 0 || len(bounds) == 0 {
			t.Fatalf("base has %d violations and %d screened clusters; the check needs both", len(peaks), len(bounds))
		}
		if len(rep.Violations) != len(peaks) {
			t.Errorf("%d violations, want %d", len(rep.Violations), len(peaks))
		}
		for _, viol := range rep.Violations {
			if want, ok := peaks[viol.Victim]; !ok || math.Float64bits(viol.PeakV) != math.Float64bits(want) {
				t.Errorf("%s: peak %v, want %v (present in base: %t)", viol.Victim, viol.PeakV, want, ok)
			}
		}
		if len(rep.Screening.Clusters) != len(bounds) {
			t.Errorf("%d screened clusters, want %d", len(rep.Screening.Clusters), len(bounds))
		}
		for _, c := range rep.Screening.Clusters {
			if want, ok := bounds[c.Victim]; !ok || math.Float64bits(c.BoundV) != math.Float64bits(want) {
				t.Errorf("%s: bound %v, want %v (present in base: %t)", c.Victim, c.BoundV, want, ok)
			}
		}
	})
}
