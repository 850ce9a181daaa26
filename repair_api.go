package xtverify

import (
	"context"
	"fmt"
	"slices"

	"xtverify/internal/cells"
	"xtverify/internal/design"
	"xtverify/internal/glitch"
	"xtverify/internal/prune"
)

// RepairOption is one evaluated fix for a violating victim net.
type RepairOption struct {
	// Fix names the strategy: "upsize-driver", "double-spacing" or
	// "shield-victim".
	Fix string
	// Detail names the concrete change (e.g. the replacement cell).
	Detail string
	// PeakV is the re-simulated glitch with the fix applied.
	PeakV float64
	// Clears reports whether the fix brings the glitch under the
	// verifier's reporting threshold.
	Clears bool
	// Feasible is false when the fix does not apply.
	Feasible bool
}

// RepairAdvice ranks candidate fixes for one victim, most effective first.
type RepairAdvice struct {
	Victim        string
	OriginalPeakV float64
	Options       []RepairOption
	// Recommended is the cheapest-listed clearing fix ("" if none clears).
	Recommended string
}

// victimCluster resolves a named victim net and prunes its cluster under the
// engine's policy, refusing a net with no retained aggressors.
func (v *Verifier) victimCluster(victim string) (*prune.Cluster, error) {
	net, ok := v.des.NetByName(victim)
	if !ok {
		return nil, fmt.Errorf("xtverify: unknown net %q", victim)
	}
	cl := prune.PruneVictim(v.par, net.Index, v.pruneOptions())
	if len(cl.Aggressors) == 0 {
		return nil, fmt.Errorf("xtverify: net %q has no retained aggressors", victim)
	}
	return cl, nil
}

// AdviseRepair evaluates the standard signal-integrity ECO menu (driver
// upsizing, spacing, shielding) for the named victim net by re-simulating
// its cluster under each fix.
func (v *Verifier) AdviseRepair(victim string) (*RepairAdvice, error) {
	return v.AdviseRepairContext(context.Background(), victim)
}

// AdviseRepairContext is AdviseRepair honoring context cancellation and
// deadlines across the polarity screen and every candidate re-simulation.
func (v *Verifier) AdviseRepairContext(ctx context.Context, victim string) (*RepairAdvice, error) {
	if err := v.requireMaterialized("AdviseRepair"); err != nil {
		return nil, err
	}
	if v.victimStale(victim) {
		// An incremental reverify superseded this victim's result here: the
		// waveforms any advice would be ranked against no longer describe the
		// current design. Advise against the verifier that produced the
		// spliced report instead.
		return nil, fmt.Errorf("%w: victim %q; advise against the reverified design's verifier", ErrStaleReport, victim)
	}
	cl, err := v.victimCluster(victim)
	if err != nil {
		return nil, err
	}
	eng := glitch.NewEngine(v.par, v.baseGlitchOptions())
	// Analyze the worse polarity first. The pair call shares one reduction
	// and prepared diagonalization between the polarities, and the repair
	// sweep below reuses the same engine memo.
	rise, fall, err := eng.AnalyzeGlitchPairContext(ctx, cl)
	if err != nil {
		return nil, err
	}
	rising := rise.PeakV >= -fall.PeakV
	threshold := v.cfg.GlitchThresholdFrac * Vdd
	adv, err := eng.AdviseRepairsContext(ctx, cl, rising, threshold)
	if err != nil {
		return nil, err
	}
	out := &RepairAdvice{Victim: adv.Victim, OriginalPeakV: adv.OriginalPeakV}
	for _, o := range adv.Options {
		out.Options = append(out.Options, RepairOption{
			Fix:      o.Fix.String(),
			Detail:   o.Detail,
			PeakV:    o.PeakV,
			Clears:   o.Clears,
			Feasible: o.Feasible,
		})
	}
	if rec := adv.Recommended(); rec != nil {
		out.Recommended = rec.Fix.String()
	}
	return out, nil
}

// UpsizeDriver returns a verifier, under cfg, for a copy of v's design in
// which every pin of the victim's first driver instance, on every net, moves
// to cell ("" picks the next stronger cell of its kind); v is not changed.
// On a tri-state bus the first driver need not be the strongest, which is
// the one AdviseRepair evaluates.
func (v *Verifier) UpsizeDriver(victim, cell string, cfg Config) (*Verifier, error) {
	if err := v.requireMaterialized("UpsizeDriver"); err != nil {
		return nil, err
	}
	net, ok := v.des.NetByName(victim)
	if !ok {
		return nil, fmt.Errorf("xtverify: unknown net %q", victim)
	}
	drv := net.Drivers[0] // extraction rejected every net without a driver
	repl := cells.NextStronger(drv.Cell)
	if cell != "" {
		var err error
		if repl, err = cells.Lookup(cell); err != nil {
			return nil, err
		}
	} else if repl == nil {
		return nil, fmt.Errorf("xtverify: no stronger %s than %s in the library", drv.Cell.Kind, drv.Cell.Name)
	}
	// Every Net is copied: an STA pass writes every net's Window, which must
	// not reach v's design. Route and Fanins are read-only after
	// construction and shared.
	d := design.New(v.des.Name)
	for _, n := range v.des.Nets {
		c := *n
		c.Window = design.Window{}
		c.Drivers = recell(n.Drivers, drv.Inst, repl)
		c.Receivers = recell(n.Receivers, drv.Inst, repl)
		d.AddNet(&c)
	}
	d.Complementary = slices.Clone(v.des.Complementary)
	cfg.setDefaults()
	return newVerifier(d, cfg)
}

// recell returns pins with every pin of inst moved to cell: pins itself when
// inst has no pin there, a copy otherwise.
func recell(pins []design.Pin, inst string, cell *cells.Cell) []design.Pin {
	i := slices.IndexFunc(pins, func(p design.Pin) bool { return p.Inst == inst })
	if i < 0 {
		return pins
	}
	out := slices.Clone(pins)
	for ; i < len(out); i++ {
		if out[i].Inst == inst {
			out[i].Cell = cell
		}
	}
	return out
}
