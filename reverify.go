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
//  2. Reverify, called on a verifier for the edited design, recomputes the
//     cluster set, compares fresh signatures against the base, and feeds a
//     reuse hook into the engine: matching clusters take their recorded
//     outcome verbatim, changed (or new) clusters run the normal ladder;
//  3. the engine assembles the spliced report through the exact code path a
//     cold run uses, so the output is byte-identical to re-running the
//     edited design from scratch — that identity is the contract the whole
//     layer is tested against.
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
	"sync"

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
// equality, not approximate equality.
func (v *Verifier) clusterSignature(cl *prune.Cluster) string {
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
	buf = prune.AppendInputSignature(buf, v.par, cl)
	members := cl.MemberNets() // victim first, then aggressors in rank order
	num(len(members))
	for i, m := range members {
		n := v.des.Nets[m]
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
		f64(v.par.Nets[m].TotalCapF())
	}
	for i, a := range members {
		for _, b := range members[i+1:] {
			bit(v.des.AreComplementary(a, b))
		}
	}
	f64(cl.KeptF)
	f64(cl.DroppedF)
	for _, a := range cl.Aggressors {
		f64(a.CouplingF)
	}
	return string(buf)
}

// signClusters computes every cluster's signature, fanning the work across
// the verifier's worker count: signing is a pure read of the parasitics and
// design (the same reads the engine's workers already perform concurrently),
// and it is a splice's dominant fixed cost.
func (v *Verifier) signClusters(clusters []*prune.Cluster) []string {
	out := make([]string, len(clusters))
	workers := min(poolSize(v.cfg.Workers), len(clusters))
	if workers < 2 {
		for i, cl := range clusters {
			out[i] = v.clusterSignature(cl)
		}
		return out
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = v.clusterSignature(clusters[i])
			}
		}()
	}
	for i := range clusters {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// baseEntry is one victim's reusable slice of a base run.
type baseEntry struct {
	sig       string
	outcome   ClusterOutcome
	violation *Violation
}

// BaseRun is a completed verification indexed for incremental reuse: one
// signed entry per cluster of the base design. Build it once per report
// (BaseRun walks every cluster) and splice any number of deltas against it.
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
// verifier — for incremental reuse. The report must be complete (every
// cluster carries an outcome); partial or foreign reports are rejected with
// ErrBaseUnusable rather than silently yielding a base that can never match.
func (v *Verifier) BaseRun(rep *Report) (*BaseRun, error) {
	if err := v.requireMaterialized("BaseRun"); err != nil {
		return nil, err
	}
	if rep == nil || rep.Diagnostics == nil {
		return nil, fmt.Errorf("%w: report has no diagnostics", ErrBaseUnusable)
	}
	clusters := prune.Clusters(v.par, v.pruneOptions())
	if len(rep.Diagnostics.Clusters) != len(clusters) {
		return nil, fmt.Errorf("%w: %d outcomes for %d clusters (incomplete run, or a report from another design)",
			ErrBaseUnusable, len(rep.Diagnostics.Clusters), len(clusters))
	}
	viols := make(map[string]*Violation, len(rep.Violations))
	for i := range rep.Violations {
		viols[rep.Violations[i].Victim] = &rep.Violations[i]
	}
	b := &BaseRun{
		cfgKey:  v.cfg.CanonicalConfigKey(),
		owner:   v,
		entries: make(map[string]*baseEntry, len(clusters)),
	}
	signed := v.signClusters(clusters)
	for i, cl := range clusters {
		out := rep.Diagnostics.Clusters[i]
		victim := v.des.Nets[cl.Victim].Name
		if out.Victim != victim {
			return nil, fmt.Errorf("%w: outcome %d is for %q, cluster victim is %q",
				ErrBaseUnusable, i, out.Victim, victim)
		}
		b.entries[victim] = &baseEntry{sig: signed[i], outcome: out, violation: viols[victim]}
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
// verifier fail with ErrStaleReport.
func (v *Verifier) ReverifyContext(ctx context.Context, base *BaseRun) (*Report, *ReverifyStats, error) {
	if err := v.requireMaterialized("Reverify"); err != nil {
		return nil, nil, err
	}
	if base == nil {
		return nil, nil, fmt.Errorf("%w: nil base run", ErrBaseUnusable)
	}
	if key := v.cfg.CanonicalConfigKey(); key != base.cfgKey {
		return nil, nil, fmt.Errorf("%w:\n  base:  %s\n  delta: %s", ErrConfigMismatch, base.cfgKey, key)
	}
	stats := &ReverifyStats{}
	seen := make(map[string]bool, len(base.entries))
	// Prune once and sign the edited design's clusters up front, in
	// parallel: the engine applies the reuse hook serially, and serial
	// signing would cost more than the recompute it saves. The same clusters
	// then feed the engine's materialized source, so the hook sees exactly
	// the clusters signed here.
	clusters := prune.Clusters(v.par, v.pruneOptions())
	fresh := make(map[int]string, len(clusters))
	for i, sig := range v.signClusters(clusters) {
		fresh[clusters[i].Victim] = sig
	}
	// The engine applies the hook serially, on the goroutine that emits
	// clusters, so plain map/slice state is safe here.
	reuse := func(cl *prune.Cluster) *clusterResult {
		victim := v.des.Nets[cl.Victim].Name
		seen[victim] = true
		ent := base.entries[victim]
		if ent == nil {
			// A brand-new victim: recomputed, but nothing in the base to
			// supersede.
			stats.ClustersRecomputed++
			return nil
		}
		if ent.outcome.Err != nil {
			// An unverified base outcome is not a pure function of the
			// signature — timeouts, cancellations and injected faults are
			// transient. A cold run of the edited design would attempt the
			// cluster afresh, so the splice must too or the identity
			// contract breaks the moment the transient condition clears.
			stats.ClustersRecomputed++
			stats.StaleVictims = append(stats.StaleVictims, victim)
			return nil
		}
		if fresh[cl.Victim] != ent.sig {
			// A mismatch means we cannot prove the cluster unchanged —
			// recompute, never guess. The base's recorded result for this
			// victim is superseded.
			stats.ClustersRecomputed++
			stats.StaleVictims = append(stats.StaleVictims, victim)
			return nil
		}
		stats.ClustersReused++
		res := &clusterResult{outcome: ent.outcome}
		if ent.violation != nil {
			viol := *ent.violation
			res.violation = &viol
		}
		return res
	}
	rep, err := v.runEngine(ctx, runParams{
		workers:  v.cfg.Workers,
		strict:   v.cfg.Strict,
		timeout:  v.cfg.ClusterTimeout,
		retries:  v.cfg.RungRetries,
		backoff:  v.cfg.RungRetryBackoff,
		reuse:    reuse,
		clusters: clusters,
	})
	if err != nil {
		return nil, nil, err
	}
	// Base victims that vanished from the edited design's cluster set are
	// superseded too: the edit removed the hazard (or the net).
	for victim := range base.entries {
		if !seen[victim] {
			stats.StaleVictims = append(stats.StaleVictims, victim)
		}
	}
	sort.Strings(stats.StaleVictims)
	base.owner.markStale(stats.StaleVictims)
	return rep, stats, nil
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
