package xtverify

import (
	"errors"
	"fmt"
	"strings"
)

// Typed per-cluster failure reasons. The fault-tolerant engine classifies
// every cluster failure into one of these sentinels so callers can match
// with errors.Is regardless of which internal layer broke down.
var (
	// ErrReduction marks a SyMPVL breakdown (G not positive definite, a
	// zero start block, an unstable reduced model) — the reduction rung of
	// the ladder could not produce a usable model.
	ErrReduction = errors.New("xtverify: model order reduction failed")
	// ErrNewtonDiverged marks a transient whose Newton iteration exhausted
	// its budget without converging.
	ErrNewtonDiverged = errors.New("xtverify: Newton iteration diverged")
	// ErrTimeout marks a cluster that exceeded its per-cluster deadline
	// (Config.ClusterTimeout).
	ErrTimeout = errors.New("xtverify: cluster analysis deadline exceeded")
	// ErrCanceled marks a cluster abandoned because the parent context was
	// canceled (a client disconnect, the engine's fail-fast cancellation, a
	// daemon drain). It is deliberately distinct from ErrTimeout: a canceled
	// cluster was never given its time budget, so retry policies must not
	// treat it as a transient overload failure.
	ErrCanceled = errors.New("xtverify: cluster analysis canceled")
	// ErrPanic marks a cluster whose analysis panicked; the panic was
	// recovered and converted into a recorded failure.
	ErrPanic = errors.New("xtverify: cluster analysis panicked")
	// ErrStaleReport marks an operation against a report that an incremental
	// reverify has superseded for the requested victim: the cluster was
	// recomputed (or dropped) by a later delta, so the base report's
	// waveforms no longer describe the design. Re-run the query against the
	// verifier that produced the spliced report.
	ErrStaleReport = errors.New("xtverify: report superseded by a reverify for this victim")
	// ErrConfigMismatch marks a reverify attempted against a base run whose
	// canonical configuration differs: splicing across configs would mix
	// results computed under different thresholds, models or policies.
	ErrConfigMismatch = errors.New("xtverify: reverify config differs from base run")
	// ErrBaseUnusable marks a base report that cannot seed a reverify — no
	// diagnostics, or cluster outcomes that no longer line up with the
	// design's cluster set.
	ErrBaseUnusable = errors.New("xtverify: base report unusable for reverify")
	// ErrStreamIngest marks an operation that needs the whole design
	// materialized in memory, requested on a streaming verifier
	// (Config.StreamIngest): one of the seven APIs that write or edit the
	// design (see Config.StreamIngest) — or a streaming-impossible knob
	// (UseTimingWindows). Every analysis on the cluster executor accepts a
	// streaming verifier. Re-ingest without StreamIngest to use these APIs.
	ErrStreamIngest = errors.New("xtverify: operation incompatible with streaming ingest")
)

// FallbackStage identifies a rung of the engine's degradation ladder.
type FallbackStage int

// The ladder, in attempt order.
const (
	// StageReduced is the standard flow: SyMPVL at the configured order.
	StageReduced FallbackStage = iota
	// StageRegularized retries with a raised Gmin grounding conductance
	// and a halved reduction order, which cures most numerical breakdowns.
	StageRegularized
	// StageDirectMNA integrates the unreduced MNA system directly — slow
	// but immune to reduction failures.
	StageDirectMNA
	// StageUnverified means every rung failed; the victim is reported as
	// unverified with the full attempt history.
	StageUnverified
	// StageScreened means the rung-0 analytic screen proved the cluster's
	// worst-case glitch below the noise margin, so no reduction or transient
	// ever ran. Logically this rung sits ahead of StageReduced; it is
	// declared after StageUnverified only to keep the historical enum values
	// stable.
	StageScreened
)

// String names the stage for reports.
func (s FallbackStage) String() string {
	switch s {
	case StageReduced:
		return "sympvl"
	case StageRegularized:
		return "sympvl+gmin"
	case StageDirectMNA:
		return "direct-mna"
	case StageUnverified:
		return "unverified"
	case StageScreened:
		return "screened"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// Attempt records one failed rung of the ladder for one cluster.
type Attempt struct {
	// Stage is the rung that was tried.
	Stage FallbackStage
	// Err is the classified failure (wraps one of the sentinel errors
	// above where the cause is recognized).
	Err error
}

// ClusterError is the structured failure attached to an unverified victim:
// which cluster failed, how far down the ladder the engine got, and what
// every attempt returned.
type ClusterError struct {
	// Victim is the cluster's victim net name.
	Victim string
	// Stage is the last rung attempted (the one that sealed the failure).
	Stage FallbackStage
	// Attempts holds every failed rung in order.
	Attempts []Attempt
}

// Error summarizes the failure with the final cause.
func (e *ClusterError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "xtverify: cluster %s unverified after %d attempt(s)", e.Victim, len(e.Attempts))
	if n := len(e.Attempts); n > 0 {
		last := e.Attempts[n-1]
		fmt.Fprintf(&b, " (last stage %s: %v)", last.Stage, last.Err)
	}
	return b.String()
}

// Unwrap exposes every attempt's error so errors.Is/As see the whole
// ladder (e.g. errors.Is(err, ErrReduction) matches if any rung failed in
// reduction).
func (e *ClusterError) Unwrap() []error {
	out := make([]error, 0, len(e.Attempts))
	for _, a := range e.Attempts {
		if a.Err != nil {
			out = append(out, a.Err)
		}
	}
	return out
}
