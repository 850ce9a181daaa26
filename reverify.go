// reverify.go is the incremental ECO re-verification layer.
//
// An engineering change order touches a handful of nets; re-running the full
// chip to re-certify it wastes almost all of its work. Reverify instead
// re-analyzes only the clusters the edit actually changed and splices the
// untouched results out of a completed base run:
//
//  1. BaseRun indexes a finished report by victim, pairing each cluster
//     outcome with a structural signature of everything the analysis
//     consumed — the pruned cluster's MNA circuit inputs, driver and
//     receiver cells, timing windows, logic correlations and coupling
//     weights;
//  2. Reverify, called on a verifier for the edited design, runs the engine
//     against the base: each worker signs its cluster, a cluster whose
//     signature matches takes its recorded outcome verbatim, and changed
//     (or new) clusters run the normal ladder;
//  3. the engine assembles the spliced report through the exact code path a
//     cold run uses, so the output is byte-identical to re-running the
//     edited design from scratch — that identity is the contract the whole
//     layer is tested against;
//  4. the spliced report carries its own index, built from the signatures
//     and outcomes the splice just produced, so the next edit in a chain
//     anchors on it without pruning or signing the design again.
//
// Reuse is sound because cluster analysis is a pure function of the
// signature's inputs: two clusters with equal signatures produce bit-equal
// results, so copying the base outcome is indistinguishable from recomputing
// it. Anything the signature cannot certify (an unknown victim, an unverified
// base outcome) falls back to recomputation — reuse is an optimization,
// never a correctness gamble.
//
// After a splice the base report is partially superseded: victims that were
// recomputed or dropped no longer mean anything on the base verifier, so
// they are marked stale there and AdviseRepair refuses them with
// ErrStaleReport (see repair_api.go).
package xtverify

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"xtverify/internal/glitch"
	"xtverify/internal/prune"
)

// CanonicalConfigKey returns a canonical string over every Config field that
// can change a report's verification content, computed after defaults are
// resolved — so a zero Config and an explicitly defaulted one share a key.
// Execution settings that the byte-identity contract proves irrelevant
// (worker count, ROM cache and store, streaming, collector, and the reference
// paths the identity tests select) are deliberately excluded.
// Two runs with equal keys over the same design produce byte-identical
// reports; the daemon uses the key to address its report cache and Reverify
// uses it to refuse cross-config splices.
func (c Config) CanonicalConfigKey() string {
	c.setDefaults()
	var b strings.Builder
	f := func(v float64) string { return strconv.FormatUint(math.Float64bits(v), 16) }
	fmt.Fprintf(&b, "v2|m%d|fo%s|cr%s|tw%t|lc%t|gt%s|tr%t|st%t|ct%d|rr%d|rb%d|ds%t|sf%s",
		c.Model, f(c.FixedOhms), f(c.CapRatioThreshold),
		c.UseTimingWindows, c.UseLogicCorrelation, f(c.GlitchThresholdFrac),
		c.TransistorRecheck, c.Strict,
		c.ClusterTimeout.Nanoseconds(), c.RungRetries, c.RungRetryBackoff.Nanoseconds(),
		c.DisableScreening, f(c.ScreenSafetyFactor))
	return b.String()
}

// maxAggressors caps cluster size at the paper's population.
const maxAggressors = 12

// pruneOptions is the one place the engine's clustering policy is spelled
// out; runEngine, the analysis APIs and the reverify signatures must all
// prune identically or their cluster sets would diverge.
func (v *Verifier) pruneOptions() prune.Options {
	return prune.Options{
		CapRatioThreshold: v.cfg.CapRatioThreshold,
		MinCouplingF:      0.5e-15,
		UseTimingWindows:  v.cfg.UseTimingWindows,
		MaxAggressors:     maxAggressors,
	}
}

// clusterSignature fingerprints everything cluster analysis reads, beyond
// what the canonical config key already pins:
//
//   - the MNA circuit's inputs (prune.AppendInputSignature: member wire RC,
//     ports, retained and grounded couplings in build order — names
//     excluded, so a pure rename still reuses; certifies the built circuit
//     without paying to build it);
//   - the victim's name (it appears verbatim in report lines);
//   - every member's driver cells and the victim's receiver cells (driver
//     strength, VTC classification, sequential flag);
//   - every member's STA window and pairwise complementary relations
//     (aggressor alignment and logic-correlation exclusion) — included
//     unconditionally, not just when the corresponding Config flag is on,
//     because the flags live in the config key and over-matching here only
//     costs a spurious recompute, never a wrong reuse;
//   - member total capacitances and the cluster's kept/dropped coupling
//     weights (the screen's bound inputs and the report's severity proxy).
//
// The encoding is length-prefixed and type-tagged so adjacent fields cannot
// alias; floats travel as raw IEEE-754 bits because reuse demands bit
// equality, not approximate equality. It reads only the unit: nets are
// identified by their position in the cluster and nodes by per-net index,
// so a streamed component view, which keeps the order of the nets and of
// the couplings, signs to the same bytes as the whole chip.
func clusterSignature(u clusterUnit) string {
	cl := u.cl
	buf := make([]byte, 0, 1024)
	str := func(s string) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
		buf = append(buf, s...)
	}
	f64 := func(x float64) {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	num := func(n int) {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(n)))
	}
	bit := func(b bool) {
		if b {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
	}
	// Gmin/order/decoupling variants follow from the ladder's constants and
	// the config key, so the circuit-input form suffices here.
	buf = prune.AppendInputSignature(buf, u.par, cl)
	members := cl.MemberNets() // victim first, then aggressors in rank order
	num(len(members))
	for i, m := range members {
		n := u.des.Nets[m]
		if i == 0 {
			// Only the victim's name reaches the report; aggressor names are
			// excluded so renaming an aggressor does not defeat reuse.
			str(n.Name)
			num(len(n.Receivers))
			for _, r := range n.Receivers {
				str(r.Cell.Name)
			}
		}
		num(len(n.Drivers))
		for _, d := range n.Drivers {
			str(d.Cell.Name)
		}
		w := n.Window
		bit(w.Valid)
		f64(w.Early)
		f64(w.Late)
		f64(w.Slew)
		f64(u.par.Nets[m].TotalCapF())
	}
	for i, a := range members {
		for _, b := range members[i+1:] {
			bit(u.des.AreComplementary(a, b))
		}
	}
	f64(cl.KeptF)
	f64(cl.DroppedF)
	for _, a := range cl.Aggressors {
		f64(a.CouplingF)
	}
	return string(buf)
}

// baseEntry is one victim's reusable slice of a base run. Entries are never
// mutated once built, so indexes and results may share them.
type baseEntry struct {
	sig       string
	outcome   ClusterOutcome
	violation *Violation
}

// BaseRun is a completed verification indexed for incremental reuse: one
// signed entry per cluster of the base design. Build it once per report
// (BaseRun signs every cluster, unless a splice already did) and splice any
// number of deltas against it; concurrent splices only read it.
type BaseRun struct {
	cfgKey string
	// owner is the verifier whose report was indexed; a splice marks the
	// victims it superseded as stale there.
	owner   *Verifier
	entries map[string]*baseEntry
}

// Entries reports the number of indexed clusters.
func (b *BaseRun) Entries() int { return len(b.entries) }

// BaseRun indexes rep — a completed report previously produced by this
// verifier — for incremental reuse. A report this verifier spliced carries
// the index its splice built, signatures and outcomes included, and gets it
// back without any pruning or signing. Any other report is signed on the
// cluster executor and checked against the design's cluster set: it must be
// complete (every cluster carries an outcome), and partial or foreign
// reports are rejected with ErrBaseUnusable rather than silently yielding a
// base that can never match. Signing a streamed verifier's report re-reads
// its source, as a run does: a DSP source regenerates the design, a DEF
// reader must be rewound by the caller first.
func (v *Verifier) BaseRun(rep *Report) (*BaseRun, error) {
	if rep == nil || rep.Diagnostics == nil {
		return nil, fmt.Errorf("%w: report has no diagnostics", ErrBaseUnusable)
	}
	if rep.index != nil && rep.index.owner == v {
		return rep.index, nil
	}
	//xtlint:background BaseRun has no context to plumb; signing is a pure read of the design, and the executor stops when the clusters run out
	jobs, _, err := v.runClusters(context.Background(), runParams{workers: v.cfg.Workers},
		func(_ context.Context, u clusterUnit) *clusterResult {
			return &clusterResult{sig: clusterSignature(u), outcome: ClusterOutcome{Victim: u.des.Nets[u.cl.Victim].Name}}
		})
	if err != nil {
		return nil, err
	}
	if len(rep.Diagnostics.Clusters) != len(jobs) {
		return nil, fmt.Errorf("%w: %d outcomes for %d clusters (incomplete run, or a report from another design)",
			ErrBaseUnusable, len(rep.Diagnostics.Clusters), len(jobs))
	}
	viols := make(map[string]*Violation, len(rep.Violations))
	for i := range rep.Violations {
		viols[rep.Violations[i].Victim] = &rep.Violations[i]
	}
	b := &BaseRun{
		cfgKey:  v.cfg.CanonicalConfigKey(),
		owner:   v,
		entries: make(map[string]*baseEntry, len(jobs)),
	}
	for i, j := range jobs {
		out := rep.Diagnostics.Clusters[i]
		victim := j.res.outcome.Victim
		if out.Victim != victim {
			return nil, fmt.Errorf("%w: outcome %d is for %q, cluster victim is %q",
				ErrBaseUnusable, i, out.Victim, victim)
		}
		b.entries[victim] = &baseEntry{sig: j.res.sig, outcome: out, violation: viols[victim]}
	}
	return b, nil
}

// ReverifyStats summarizes how much of a splice was reused.
type ReverifyStats struct {
	// ClustersReused is the number of clusters whose base result was spliced
	// in unchanged; ClustersRecomputed the number analyzed fresh (changed,
	// new, or unsignable).
	ClustersReused     int
	ClustersRecomputed int
	// StaleVictims lists the base-report victims this splice superseded
	// (recomputed or dropped), sorted — the set AdviseRepair now refuses on
	// the base verifier.
	StaleVictims []string
}

// Reverify is ReverifyContext with a background context.
func (v *Verifier) Reverify(base *BaseRun) (*Report, *ReverifyStats, error) {
	return v.ReverifyContext(context.Background(), base)
}

// ReverifyContext verifies this (edited) design incrementally against base:
// clusters whose structural signature matches the base run reuse its
// recorded result, everything else runs the normal engine ladder, and the
// spliced report is byte-identical to a cold RunContext on the same design
// and config. The base must come from a verifier with an equal canonical
// config (ErrConfigMismatch otherwise) — splicing across configs would mix
// results computed under different policies.
//
// Victims the splice supersedes on the base (recomputed or dropped) are
// marked stale there; subsequent AdviseRepair calls for them on the base
// verifier fail with ErrStaleReport. The spliced report carries its own
// index, so BaseRun on this verifier returns it without signing again and a
// chain of splices signs each design once. A streamed verifier re-reads its
// source, as RunContext does.
func (v *Verifier) ReverifyContext(ctx context.Context, base *BaseRun) (*Report, *ReverifyStats, error) {
	if base == nil {
		return nil, nil, fmt.Errorf("%w: nil base run", ErrBaseUnusable)
	}
	if key := v.cfg.CanonicalConfigKey(); key != base.cfgKey {
		return nil, nil, fmt.Errorf("%w:\n  base:  %s\n  delta: %s", ErrConfigMismatch, base.cfgKey, key)
	}
	rep, jobs, err := v.runEngine(ctx, v.glitchRun(base))
	if err != nil {
		return nil, nil, err
	}
	// One pass over the results, in victim order, yields the stats, the
	// stale set and the spliced report's index.
	stats := &ReverifyStats{}
	index := &BaseRun{cfgKey: base.cfgKey, owner: v, entries: make(map[string]*baseEntry, len(jobs))}
	for _, j := range jobs {
		r := j.res
		victim := r.outcome.Victim
		prev := base.entries[victim]
		if r.reused {
			// Same signature, outcome and violation: the base's entry is the
			// spliced report's too.
			stats.ClustersReused++
			index.entries[victim] = prev
			continue
		}
		stats.ClustersRecomputed++
		index.entries[victim] = &baseEntry{sig: r.sig, outcome: r.outcome, violation: r.violation}
		if prev != nil {
			// A changed cluster or an unverified base outcome: the base's
			// recorded result is superseded. A brand-new victim has nothing
			// in the base to supersede.
			stats.StaleVictims = append(stats.StaleVictims, victim)
		}
	}
	// Base victims that vanished from the edited design's cluster set are
	// superseded too: the edit removed the hazard (or the net).
	for victim := range base.entries {
		if index.entries[victim] == nil {
			stats.StaleVictims = append(stats.StaleVictims, victim)
		}
	}
	sort.Strings(stats.StaleVictims)
	base.owner.markStale(stats.StaleVictims)
	rep.index = index
	return rep, stats, nil
}

// spliceCluster is a reverify's per-cluster analysis, run by the executor's
// workers: it signs the cluster and takes the base's recorded outcome and
// violation when the signature certifies them, and runs the ladder
// otherwise. Three cases recompute:
//
//   - a new victim, which the base never analyzed;
//   - an unverified base outcome, which is not a pure function of the
//     signature — timeouts, cancellations and injected faults are
//     transient. A cold run of the edited design would attempt the cluster
//     afresh, so the splice must too or the identity contract breaks the
//     moment the transient condition clears;
//   - a signature mismatch: the cluster cannot be proven unchanged —
//     recompute, never guess.
func (v *Verifier) spliceCluster(ctx context.Context, baseOpts glitch.Options, u clusterUnit, p runParams) *clusterResult {
	sig := clusterSignature(u)
	ent := p.base.entries[u.des.Nets[u.cl.Victim].Name]
	if ent != nil && ent.outcome.Err == nil && ent.sig == sig {
		return &clusterResult{outcome: ent.outcome, violation: ent.violation, sig: sig, reused: true}
	}
	res := v.analyzeCluster(ctx, baseOpts, u, p)
	res.sig = sig
	return res
}

// markStale records victims whose results in this verifier's reports were
// superseded by a reverify splice. Concurrency-safe: the daemon may splice
// while another request is advising.
func (v *Verifier) markStale(victims []string) {
	if len(victims) == 0 {
		return
	}
	v.staleMu.Lock()
	defer v.staleMu.Unlock()
	if v.stale == nil {
		v.stale = make(map[string]bool, len(victims))
	}
	for _, name := range victims {
		v.stale[name] = true
	}
}

// victimStale reports whether a reverify splice superseded the victim here.
func (v *Verifier) victimStale(name string) bool {
	v.staleMu.Lock()
	defer v.staleMu.Unlock()
	return v.stale[name]
}
