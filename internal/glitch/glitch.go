// Package glitch is the chip-level crosstalk analysis engine: it takes a
// pruned cluster, sets up the worst-case stimulus under the paper's analysis
// policies (aggressors aligned within timing windows, tri-state buses driven
// by their strongest driver, complementary flip-flop outputs never switching
// the same way), attaches driver models, and predicts the victim's glitch
// peak or coupled delay using the SyMPVL reduced-order model.
//
// For validation it can also run the identical cluster through the
// SPICE-class reference engine, either with the same driver models or at
// transistor level, which is how the paper's Figures 3–7 are produced.
package glitch

import (
	"context"
	"fmt"
	"math"
	"strconv"

	"xtverify/internal/cellmodel"
	"xtverify/internal/cells"
	"xtverify/internal/circuit"
	"xtverify/internal/devices"
	"xtverify/internal/extract"
	"xtverify/internal/mna"
	"xtverify/internal/obs"
	"xtverify/internal/prune"
	"xtverify/internal/romsim"
	"xtverify/internal/sympvl"
	"xtverify/internal/waveform"
)

// Vdd is the analysis supply.
const Vdd = devices.Vdd025

// ModelKind selects the driver model family; it is cells.DriverModel, the
// one enum the engine shares with the rung-0 screen.
type ModelKind = cells.DriverModel

// Driver model kinds.
const (
	ModelFixedR        = cells.DriverFixedR
	ModelTimingLibrary = cells.DriverTimingLibrary
	ModelNonlinear     = cells.DriverNonlinear
)

// alignTime is the nominal aggressor switching instant when timing windows
// are not used.
const alignTime = 200e-12

// Options configures an analysis run.
type Options struct {
	// Model selects the driver model family.
	Model ModelKind
	// FixedOhms is the drive resistance for ModelFixedR (default
	// cells.DefaultFixedOhms).
	FixedOhms float64
	// Order is the reduced-model order (default OrderFactor·ports, capped
	// by cluster size).
	Order int
	// OrderFactor sets the order as a multiple of the port count when Order
	// is zero (default 6).
	OrderFactor int
	// TEnd and Dt control the transient (defaults 4 ns / 2 ps).
	TEnd, Dt float64
	// UseTimingWindows aligns aggressors inside their STA windows and
	// silences those that cannot overlap the victim's window.
	UseTimingWindows bool
	// UseLogicCorrelation makes complementary aggressor pairs switch in
	// opposite directions.
	UseLogicCorrelation bool
	// Gmin overrides the per-node grounding conductance used during MNA
	// assembly (mna.DefaultGmin if zero). The chip-level fallback ladder
	// raises it to regularize clusters whose G defeats the Cholesky
	// factorization at the default value.
	Gmin float64
	// DirectMNA bypasses SyMPVL reduction and integrates the unreduced
	// MNA system directly — the last-resort rung of the fallback ladder.
	// Much slower, but immune to reduction breakdowns.
	DirectMNA bool
	// Cache memoizes SyMPVL reductions keyed by the structural fingerprint
	// of the pruned cluster. Share one cache across engines (the verifier's
	// worker pool does) to reuse models between structurally identical
	// clusters. NewEngine installs a private cache when nil unless
	// DisableROMCache is set.
	Cache *ROMCache
	// DisableROMCache turns reduced-model memoization off entirely.
	DisableROMCache bool
	// PreparedStore, when non-nil, persists prepared-transient numeric cores
	// (romsim.PreparedCore) across processes, keyed by the cluster
	// fingerprint plus the termination conductance pattern and stepping
	// parameters. A hit skips the SyMPVL reduction *and* the termination
	// fold/eigendecomposition; transients against a restored core are
	// bit-identical to freshly prepared ones. Ignored when DisableROMCache
	// or DisablePrepared is set, and bypassed (like the in-memory memo) for
	// circuits that no longer match prune.BuildCircuit output.
	PreparedStore PreparedBacking
	// DisablePrepared turns the prepared-transient layer off: every
	// scenario re-runs the termination fold and eigendecomposition through
	// one-shot romsim.Simulate calls, and rising/falling (and
	// repair-candidate) scenarios run sequentially instead of as batched
	// multi-RHS sweeps. Results are bit-identical either way; the knob
	// exists for the byte-identity regression tests and A/B benchmarking.
	DisablePrepared bool
	// Trace, when non-nil, receives this engine's phase spans and counters
	// (one trace per cluster: the verifier installs a fresh one per
	// analyzed cluster). Nil disables instrumentation at near-zero cost.
	Trace *obs.Trace
}

func (o *Options) setDefaults() {
	if o.FixedOhms == 0 {
		o.FixedOhms = cells.DefaultFixedOhms
	}
	if o.TEnd == 0 {
		o.TEnd = 4e-9
	}
	if o.Dt == 0 {
		o.Dt = 2e-12
	}
}

// AggressorPlan describes the stimulus decided for one aggressor.
type AggressorPlan struct {
	Net      int
	Cell     *cells.Cell
	Rising   bool
	Quiet    bool // excluded by timing windows
	SwitchAt float64
	Inverted bool // flipped by logic correlation
}

// Result is the outcome of a glitch analysis.
type Result struct {
	VictimName string
	// PeakV is the signed worst glitch deviation at the victim receivers.
	PeakV float64
	// PeakTime is when it occurs.
	PeakTime float64
	// ReceiverWave is the waveform at the worst receiver port.
	ReceiverWave *waveform.Waveform
	// Aggressors records the stimulus plan.
	Aggressors []AggressorPlan
	// ActiveAggressors counts non-quiet aggressors.
	ActiveAggressors int
	// ReducedOrder is the SyMPVL model order used.
	ReducedOrder int
	// ClusterNodes is the unreduced node count.
	ClusterNodes int
}

// Engine performs analyses against one design's parasitics. An Engine is not
// safe for concurrent use (it owns a reusable Lanczos workspace); the shared
// pieces — Parasitics and the ROM cache — may be referenced by many engines.
type Engine struct {
	Par *extract.Parasitics
	Opt Options

	// ws is the engine-private SyMPVL scratch arena, reused across every
	// reduction this engine performs.
	ws *sympvl.Workspace
	// memo caches the most recent cluster's setup, one slot per decoupling
	// variant. The engine analyzes each cluster several times back to back
	// (two glitch polarities, delay with and without coupling), and the
	// delay sweep alternates coupled and decoupled — a single slot would
	// thrash on exactly that access pattern.
	memo struct {
		cl *prune.Cluster
		sl [2]*clusterSetup // indexed by decoupled
	}
}

// clusterSetup is what every scenario over one cluster shares: the built
// circuit, its port resolution and its assembled MNA system. The circuit,
// ports and system are immutable after construction, which is what lets the
// engine memoize a setup across analyses.
type clusterSetup struct {
	ckt *circuit.Circuit
	cp  *clusterPorts
	sys *mna.System
	// decoupled marks a system assembled with every coupling capacitor
	// grounded (the delay baseline); the ROM cache keys it apart.
	decoupled bool
	// edited marks a circuit a repair transform changed after
	// prune.BuildCircuit. Neither the fingerprint nor a pattern key can see
	// such an edit, so an edited setup never reaches the ROM cache, the
	// prepared memo or the PreparedStore.
	edited bool
	// prep memoizes prepared transients (romsim.Prepared) by the
	// conductance pattern of their terminations. A hit skips the reduction
	// and the diagonalization entirely.
	prep map[string]*romsim.Prepared
}

// setup returns the setup for cl under the given decoupling, reusing the
// memoized one when the same cluster is re-analyzed. A non-nil transform
// edits a private copy of the circuit (a repair candidate); that setup is
// marked edited and kept out of the memo.
func (e *Engine) setup(cl *prune.Cluster, decoupled bool, transform func(*circuit.Circuit) *circuit.Circuit) (*clusterSetup, error) {
	slot := 0
	if decoupled {
		slot = 1
	}
	if transform == nil {
		if e.memo.cl != cl {
			e.memo.cl = cl
			e.memo.sl = [2]*clusterSetup{}
		} else if s := e.memo.sl[slot]; s != nil {
			return s, nil
		}
	}
	ckt, err := prune.BuildCircuit(e.Par, cl)
	if err != nil {
		return nil, err
	}
	s := &clusterSetup{ckt: ckt, decoupled: decoupled}
	if transform != nil {
		s.ckt, s.edited = transform(ckt), true
	}
	if s.cp, err = resolvePorts(e.Par, cl, s.ckt); err != nil {
		return nil, err
	}
	if s.sys, err = mna.FromCircuit(s.ckt, mna.Options{DecoupleAll: decoupled, Gmin: e.Opt.Gmin}); err != nil {
		return nil, err
	}
	if transform == nil {
		e.memo.sl[slot] = s
	}
	return s, nil
}

// NewEngine constructs an engine.
func NewEngine(par *extract.Parasitics, opt Options) *Engine {
	opt.setDefaults()
	if opt.Cache == nil && !opt.DisableROMCache {
		opt.Cache = NewROMCache(DefaultROMCacheCap)
	}
	return &Engine{Par: par, Opt: opt, ws: &sympvl.Workspace{}}
}

// strongestCell returns the cell of net's strongest driver — the one the
// tri-state bus rule has switching.
func (e *Engine) strongestCell(net int) *cells.Cell {
	n := e.Par.Design.Nets[net]
	return n.Drivers[n.StrongestDriver()].Cell
}

// clusterPorts resolves which circuit port drives/observes what.
type clusterPorts struct {
	// victimDriver is the active victim driver port index.
	victimDriver int
	// idleDrivers are bus driver ports held tri-stated (open).
	idleDrivers []int
	// aggDrivers[i] is the active driver port of aggressor i.
	aggDrivers []int
	// receivers are the victim receiver port indices.
	receivers []int
}

func resolvePorts(p *extract.Parasitics, cl *prune.Cluster, ckt *circuit.Circuit) (*clusterPorts, error) {
	cp := &clusterPorts{victimDriver: -1}
	d := p.Design
	members := cl.MemberNets()
	// Per member net, the port indices of its drivers in declaration order.
	drvPorts := make([][]int, len(members))
	for pi, port := range ckt.Ports {
		switch port.Kind {
		case circuit.PortDriver:
			drvPorts[port.Net] = append(drvPorts[port.Net], pi)
		case circuit.PortReceiver:
			cp.receivers = append(cp.receivers, pi)
		}
	}
	for pos, m := range members {
		pins := d.Nets[m].Drivers
		if len(drvPorts[pos]) != len(pins) {
			return nil, fmt.Errorf("glitch: net %s has %d driver ports for %d pins", d.Nets[m].Name, len(drvPorts[pos]), len(pins))
		}
		active := d.Nets[m].StrongestDriver()
		for k, pi := range drvPorts[pos] {
			switch {
			case k == active && pos == 0:
				cp.victimDriver = pi
			case k == active:
				cp.aggDrivers = append(cp.aggDrivers, pi)
			default:
				cp.idleDrivers = append(cp.idleDrivers, pi)
			}
		}
	}
	if cp.victimDriver < 0 {
		return nil, fmt.Errorf("glitch: victim driver port missing")
	}
	if len(cp.receivers) == 0 {
		return nil, fmt.Errorf("glitch: victim has no receiver ports")
	}
	return cp, nil
}

// planAggressors applies the alignment and correlation policies. glitchRising
// selects the glitch polarity under analysis: rising glitches are produced
// by rising aggressors against a low victim.
func (e *Engine) planAggressors(cl *prune.Cluster, glitchRising bool) []AggressorPlan {
	d := e.Par.Design
	vNet := d.Nets[cl.Victim]
	plans := make([]AggressorPlan, len(cl.Aggressors))
	for i, a := range cl.Aggressors {
		aNet := d.Nets[a.Net]
		plan := AggressorPlan{Net: a.Net, Cell: e.strongestCell(a.Net), Rising: glitchRising, SwitchAt: alignTime}
		if e.Opt.UseTimingWindows && vNet.Window.Valid && aNet.Window.Valid {
			if !vNet.Window.Overlaps(aNet.Window) {
				plan.Quiet = true
			} else {
				// Align inside the window intersection, as close to the
				// nominal alignment point as allowed.
				lo := math.Max(vNet.Window.Early, aNet.Window.Early)
				hi := math.Min(vNet.Window.Late, aNet.Window.Late)
				at := math.Min(math.Max(alignTime, lo), hi)
				plan.SwitchAt = at
			}
		}
		plans[i] = plan
	}
	if e.Opt.UseLogicCorrelation {
		// Complementary pairs cannot switch the same direction: flip the
		// weaker partner.
		for i := range plans {
			for j := i + 1; j < len(plans); j++ {
				if d.AreComplementary(plans[i].Net, plans[j].Net) &&
					plans[i].Rising == plans[j].Rising && !plans[i].Quiet && !plans[j].Quiet {
					weaker := j
					if plans[i].Cell.Wn < plans[j].Cell.Wn {
						weaker = i
					}
					plans[weaker].Rising = !plans[weaker].Rising
					plans[weaker].Inverted = true
				}
			}
		}
	}
	return plans
}

// aggressorSource builds the driver-input stimulus for an aggressor plan:
// the cell INPUT ramp that produces the desired OUTPUT transition.
func (e *Engine) aggressorSource(plan AggressorPlan) waveform.Source {
	inRising := plan.Rising
	if plan.Cell.Polarity() < 0 {
		inRising = !plan.Rising
	}
	v0, v1 := 0.0, Vdd
	if !inRising {
		v0, v1 = Vdd, 0
	}
	start := plan.SwitchAt - cells.AggressorInputSlew/2
	if start < 0 {
		start = 0
	}
	return waveform.Ramp(v0, v1, start, cells.AggressorInputSlew)
}

// driverTermination builds the romsim termination for a switching aggressor.
func (e *Engine) driverTermination(plan AggressorPlan, loadEst float64) (romsim.Termination, error) {
	if plan.Quiet {
		// Quiet aggressor: held at its current state by its driver. Model as
		// holding low (direction is irrelevant for a non-switching line's
		// small-signal behaviour; its driver still loads the line).
		return e.holdTermination(plan.Cell, cells.HoldLow)
	}
	switch e.Opt.Model {
	case ModelFixedR:
		// With a fixed resistance the "driver" is an ideal ramp behind R —
		// the source follows the intended OUTPUT transition directly.
		v0, v1 := 0.0, Vdd
		if !plan.Rising {
			v0, v1 = Vdd, 0
		}
		start := plan.SwitchAt - cells.AggressorInputSlew/2
		if start < 0 {
			start = 0
		}
		return romsim.Termination{Linear: &romsim.Linear{
			G: 1 / e.Opt.FixedOhms, Vs: waveform.Ramp(v0, v1, start, cells.AggressorInputSlew),
		}}, nil
	case ModelTimingLibrary:
		tm, err := cells.CharacterizeCached(plan.Cell)
		if err != nil {
			return romsim.Termination{}, err
		}
		drv := cellmodel.NewLinearSwitching(tm, plan.Rising, plan.SwitchAt, cells.AggressorInputSlew, loadEst)
		return drv.Termination(), nil
	case ModelNonlinear:
		tm, err := cells.CharacterizeCached(plan.Cell)
		if err != nil {
			return romsim.Termination{}, err
		}
		drv, err := cellmodel.NewNonlinearSwitching(plan.Cell, tm, plan.Rising, plan.SwitchAt, cells.AggressorInputSlew, loadEst)
		if err != nil {
			return romsim.Termination{}, err
		}
		return drv.Termination(), nil
	default:
		return romsim.Termination{}, fmt.Errorf("glitch: unknown model kind %d", e.Opt.Model)
	}
}

// holdTermination builds the victim-side holding termination.
func (e *Engine) holdTermination(c *cells.Cell, hold cells.HoldState) (romsim.Termination, error) {
	rail := waveform.Const(0)
	if hold == cells.HoldHigh {
		rail = waveform.Const(Vdd)
	}
	switch e.Opt.Model {
	case ModelFixedR:
		return romsim.Termination{Linear: &romsim.Linear{G: 1 / e.Opt.FixedOhms, Vs: rail}}, nil
	case ModelTimingLibrary:
		tm, err := cells.CharacterizeCached(c)
		if err != nil {
			return romsim.Termination{}, err
		}
		return cellmodel.NewLinearHolding(tm, hold).Termination(), nil
	case ModelNonlinear:
		drv, err := cellmodel.NewNonlinearHolding(c, hold)
		if err != nil {
			return romsim.Termination{}, err
		}
		return drv.Termination(), nil
	default:
		return romsim.Termination{}, fmt.Errorf("glitch: unknown model kind %d", e.Opt.Model)
	}
}

// reducedOrder resolves the SyMPVL order for a cluster with p ports.
func (e *Engine) reducedOrder(p int) int {
	if e.Opt.Order > 0 {
		return e.Opt.Order
	}
	f := e.Opt.OrderFactor
	if f <= 0 {
		f = 6
	}
	return f * p
}

// reduceModel runs the SyMPVL reduction for s, memoized through the ROM
// cache unless s is edited (the fingerprint is computed from the circuit
// prune.BuildCircuit produced, so it cannot see a repair transform's edits).
// Cache hits return the shared canonical model rebound to this cluster's
// port names; the rebinding also drops the model's lazy eigendecomposition
// cache so concurrent users never race on it. The memoized values are
// bit-identical to a fresh reduction: Reduce is deterministic in (G, C, B),
// and the fingerprint pins down exactly those matrices plus the
// gmin/order/decoupling parameters that shaped them.
func (e *Engine) reduceModel(ctx context.Context, s *clusterSetup) (*sympvl.Model, error) {
	reduce := func() (*sympvl.Model, error) {
		return sympvl.Reduce(s.sys, sympvl.Options{Order: e.reducedOrder(s.sys.P), Check: pollCheck(ctx), Workspace: e.ws, Trace: e.Opt.Trace})
	}
	if s.edited || e.Opt.Cache == nil || e.Opt.DisableROMCache {
		span := e.Opt.Trace.Start(obs.PhaseReduce)
		m, err := reduce()
		span.End()
		return m, err
	}
	key := e.fingerprint(s)
	// The reduce span includes the cache lookup: a hit shows up as a
	// near-zero span, and Lanczos iterations are attributed (inside
	// sympvl.Reduce) to the cluster that actually performed the reduction.
	span := e.Opt.Trace.Start(obs.PhaseReduce)
	m, err := e.Opt.Cache.GetOrCompute(ctx, key, reduce)
	span.End()
	if err != nil {
		return nil, err
	}
	return m.WithPortNames(s.sys.PortNames), nil
}

// fingerprint is the structural key of s's reduced model: the circuit plus
// the gmin, order and decoupling that shape its MNA system.
func (e *Engine) fingerprint(s *clusterSetup) string {
	gmin := e.Opt.Gmin
	if gmin == 0 {
		gmin = mna.DefaultGmin
	}
	span := e.Opt.Trace.Start(obs.PhaseFingerprint)
	key := prune.Fingerprint(s.ckt, gmin, e.reducedOrder(s.sys.P), s.decoupled)
	span.End()
	return key
}

// loadEstimate approximates the total load a net's driver sees (wire +
// pins), used to parameterize the driver models.
func (e *Engine) loadEstimate(net int) float64 {
	return e.Par.Nets[net].TotalCapF()
}

// AnalyzeGlitch predicts the worst glitch of the given polarity on the
// cluster's victim using the reduced-order flow.
func (e *Engine) AnalyzeGlitch(cl *prune.Cluster, glitchRising bool) (*Result, error) {
	return e.AnalyzeGlitchContext(context.Background(), cl, glitchRising)
}

// AnalyzeGlitchContext is AnalyzeGlitch honoring context cancellation and
// deadlines: the reduction and transient loops poll ctx and abort promptly
// with its error when it is done.
func (e *Engine) AnalyzeGlitchContext(ctx context.Context, cl *prune.Cluster, glitchRising bool) (*Result, error) {
	res, _, err := e.analyzeGlitch(ctx, cl, nil, []glitchScenario{{glitchRising: glitchRising}})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}

// AnalyzeGlitchPair predicts both glitch polarities on the cluster's victim
// in one pass, sharing the reduction and the prepared diagonalization; see
// AnalyzeGlitchPairContext.
func (e *Engine) AnalyzeGlitchPair(cl *prune.Cluster) (rising, falling *Result, err error) {
	return e.AnalyzeGlitchPairContext(context.Background(), cl)
}

// AnalyzeGlitchPairContext predicts both glitch polarities on the cluster's
// victim in one pass. The cluster circuit, MNA system and SyMPVL reduction
// are shared, the termination fold + eigendecomposition is prepared once per
// conductance pattern, and — when the driver models give both polarities the
// same pattern (always true for ModelFixedR) — the two transients advance in
// lockstep as one multi-RHS sweep. The results are bit-identical to calling
// AnalyzeGlitchContext once per polarity; on failure the first failing
// polarity's error is returned, rising first, matching the sequential order.
func (e *Engine) AnalyzeGlitchPairContext(ctx context.Context, cl *prune.Cluster) (rising, falling *Result, err error) {
	res, _, err := e.analyzeGlitch(ctx, cl, nil, []glitchScenario{{glitchRising: true}, {glitchRising: false}})
	if err != nil {
		return nil, nil, err
	}
	return res[0], res[1], nil
}

// glitchScenario describes one glitch run against a shared cluster setup.
type glitchScenario struct {
	glitchRising bool
	// victimCell overrides the victim's holding cell when non-nil (the
	// repair advisor's driver-upsize candidate).
	victimCell *cells.Cell
}

// glitchHold is the victim's holding state and quiet level for a glitch
// polarity: rising glitches disturb a victim held low.
func glitchHold(glitchRising bool) (hold cells.HoldState, baseline float64) {
	if glitchRising {
		return cells.HoldLow, 0
	}
	return cells.HoldHigh, Vdd
}

// glitchTerms builds the stimulus plan and port terminations for one glitch
// scenario: the victim held at the rail opposite the glitch polarity, the
// aggressors switching per the alignment/correlation policies, and the idle
// bus drivers tri-stated (open terminations, the zero value).
func (e *Engine) glitchTerms(cl *prune.Cluster, s *clusterSetup, sp glitchScenario) (terms []romsim.Termination, plans []AggressorPlan, err error) {
	plans = e.planAggressors(cl, sp.glitchRising)
	hold, _ := glitchHold(sp.glitchRising)
	terms = make([]romsim.Termination, len(s.ckt.Ports))
	vCell := sp.victimCell
	if vCell == nil {
		vCell = e.strongestCell(cl.Victim)
	}
	if terms[s.cp.victimDriver], err = e.holdTermination(vCell, hold); err != nil {
		return nil, nil, err
	}
	for i, pi := range s.cp.aggDrivers {
		if terms[pi], err = e.driverTermination(plans[i], e.loadEstimate(plans[i].Net)); err != nil {
			return nil, nil, err
		}
	}
	return terms, plans, nil
}

// glitchResult assembles the analysis Result from a finished transient.
func (e *Engine) glitchResult(cl *prune.Cluster, s *clusterSetup, glitchRising bool, plans []AggressorPlan,
	order int, simRes *romsim.Result) *Result {
	_, baseline := glitchHold(glitchRising)
	res := &Result{
		VictimName:   e.Par.Design.Nets[cl.Victim].Name,
		Aggressors:   plans,
		ReducedOrder: order,
		ClusterNodes: s.sys.N,
	}
	for _, p := range plans {
		if !p.Quiet {
			res.ActiveAggressors++
		}
	}
	for _, pi := range s.cp.receivers {
		pk := simRes.Ports[pi].PeakDeviation(baseline)
		if pk.Abs > math.Abs(res.PeakV) {
			res.PeakV = pk.Value
			res.PeakTime = pk.Time
			res.ReceiverWave = simRes.Ports[pi]
		}
	}
	if res.ReceiverWave == nil {
		res.ReceiverWave = simRes.Ports[s.cp.receivers[0]]
	}
	return res
}

// analyzeGlitch runs the glitch scenarios specs against cl's coupled setup,
// with the circuit edited by transform when it is non-nil (the repair
// advisor's respace and shield candidates). Results are indexed like specs.
// On failure it returns the first error in spec order together with the
// index of the spec that produced it, so callers can apply per-candidate
// error wrapping.
func (e *Engine) analyzeGlitch(ctx context.Context, cl *prune.Cluster,
	transform func(*circuit.Circuit) *circuit.Circuit, specs []glitchScenario) ([]*Result, int, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	s, err := e.setup(cl, false, transform)
	if err != nil {
		return nil, 0, err
	}
	terms := make([][]romsim.Termination, len(specs))
	plans := make([][]AggressorPlan, len(specs))
	for i, sp := range specs {
		if terms[i], plans[i], err = e.glitchTerms(cl, s, sp); err != nil {
			return nil, i, err
		}
	}
	simRes, order, failed, err := e.simulate(ctx, s, terms)
	if err != nil {
		return nil, failed, err
	}
	out := make([]*Result, len(specs))
	for i, sp := range specs {
		out[i] = e.glitchResult(cl, s, sp.glitchRising, plans[i], order, simRes[i])
	}
	return out, -1, nil
}

// PreparedBacking is the optional persistent level under the prepared-
// transient memo (implemented by romstore.Store): restored cores step
// bit-identically to freshly prepared ones, loads that cannot be fully
// validated report a miss, and saves are best-effort.
type PreparedBacking interface {
	LoadPrepared(key string) (*romsim.PreparedCore, bool)
	SavePrepared(key string, c *romsim.PreparedCore)
}

// pollCheck returns the cancellation poll romsim and sympvl call once per
// time step or Lanczos iteration: a non-blocking receive on ctx.Done(),
// which takes no lock where a cancelCtx's Err does, or nil when ctx can
// never be canceled.
func pollCheck(ctx context.Context) func() error {
	done := ctx.Done()
	if done == nil {
		return nil
	}
	return func() error {
		select {
		case <-done:
			return ctx.Err()
		default:
			return nil
		}
	}
}

// simulate runs one transient per termination list in scens against the
// setup s. It is the only code that decides how a transient runs:
//
//   - DirectMNA integrates the unreduced system (the fallback ladder's last
//     rung);
//   - DisablePrepared, and any edited setup, run the one-shot reference:
//     scenario by scenario, one reduction (through the ROM cache unless
//     edited) and one romsim.Simulate each, stopping at the first failure;
//   - otherwise scenarios are grouped by conductance pattern in first-seen
//     order, and each group runs against one memoized Prepared — Run for a
//     group of one, one RunBatch multi-RHS sweep otherwise.
//
// Every path returns bit-identical results. Results are indexed like scens
// and order is the dimension the transients ran in. On failure it returns
// the first error in scenario order with that scenario's index.
func (e *Engine) simulate(ctx context.Context, s *clusterSetup, scens [][]romsim.Termination) (res []*romsim.Result, order, failed int, err error) {
	res = make([]*romsim.Result, len(scens))
	check := pollCheck(ctx)
	opt := romsim.Options{TEnd: e.Opt.TEnd, Dt: e.Opt.Dt, Check: check, Trace: e.Opt.Trace}
	switch {
	case e.Opt.DirectMNA:
		for i, terms := range scens {
			if res[i], err = romsim.SimulateDirect(s.sys, terms, opt); err != nil {
				return nil, 0, i, err
			}
		}
		return res, s.sys.N, -1, nil
	case e.Opt.DisablePrepared || s.edited:
		for i, terms := range scens {
			model, err := e.reduceModel(ctx, s)
			if err != nil {
				return nil, 0, i, err
			}
			if res[i], err = romsim.Simulate(model, terms, opt); err != nil {
				return nil, 0, i, err
			}
			order = model.Order
		}
		return res, order, -1, nil
	}
	// Group scenarios by conductance pattern in first-seen order, keeping
	// scenario order inside each group, and sweep each group through one
	// Prepared. Distinct patterns (e.g. library-model polarities with
	// different drive G) still share the reduction through the ROM cache;
	// only the cheap fold re-runs. A lone scenario needs no pattern map.
	groups, pats := [][]int{{0}}, []string{romsim.PatternKey(scens[0])}
	if len(scens) > 1 {
		at := map[string]int{pats[0]: 0}
		for i := 1; i < len(scens); i++ {
			pat := romsim.PatternKey(scens[i])
			g, ok := at[pat]
			if !ok {
				g = len(groups)
				at[pat] = g
				groups, pats = append(groups, nil), append(pats, pat)
			}
			groups[g] = append(groups[g], i)
		}
	}
	failed = -1
	fail := func(i int, ierr error) {
		if ierr != nil && (failed == -1 || i < failed) {
			failed, err = i, ierr
		}
	}
	for g, idxs := range groups {
		p, perr := e.preparedFor(ctx, s, scens[idxs[0]], pats[g])
		if perr != nil {
			// Every later group starts after idxs[0], so no later failure
			// can come first in scenario order.
			fail(idxs[0], perr)
			break
		}
		order = p.Order()
		if len(idxs) == 1 {
			var rerr error
			res[idxs[0]], rerr = p.Run(romsim.Scenario{Terms: scens[idxs[0]], Check: check, Trace: e.Opt.Trace})
			fail(idxs[0], rerr)
			continue
		}
		batch := make([]romsim.Scenario, len(idxs))
		for k, i := range idxs {
			batch[k] = romsim.Scenario{Terms: scens[i], Check: check, Trace: e.Opt.Trace}
		}
		rs, errs := p.RunBatch(batch)
		for k, i := range idxs {
			res[i] = rs[k]
			fail(i, errs[k])
		}
	}
	if failed >= 0 {
		return nil, 0, failed, err
	}
	return res, order, -1, nil
}

// preparedFor returns the memoized Prepared for s and the conductance
// pattern key of terms, building the reduced model and the factorization on
// a miss. A hit skips both the reduction and the diagonalization. When a
// PreparedStore is configured, misses consult it before reducing — keyed by
// the cluster fingerprint, the stepping parameters and the termination
// pattern, so a warm process skips the diagonalization across restarts too
// — and freshly prepared cores are written through. Only simulate calls it,
// and never for an edited setup: neither the pattern key nor the
// fingerprint-based store key can see circuit edits.
func (e *Engine) preparedFor(ctx context.Context, s *clusterSetup, terms []romsim.Termination, pat string) (*romsim.Prepared, error) {
	if p, ok := s.prep[pat]; ok {
		e.Opt.Trace.Add(obs.CtrPreparedReuses, 1)
		return p, nil
	}
	if s.prep == nil {
		s.prep = make(map[string]*romsim.Prepared, 4)
	}
	var storeKey string
	if e.Opt.PreparedStore != nil && !e.Opt.DisableROMCache {
		// The fingerprint already encodes gmin/order/decoupling; the suffix
		// pins the stepping grid and the termination conductance pattern
		// (romsim's tol/maxNewton defaults are constants covered by the
		// store's format version).
		storeKey = e.fingerprint(s) + "|prep|" + strconv.FormatUint(math.Float64bits(e.Opt.TEnd), 16) + "." +
			strconv.FormatUint(math.Float64bits(e.Opt.Dt), 16) + "|" + pat
		if core, ok := e.Opt.PreparedStore.LoadPrepared(storeKey); ok {
			if p, err := romsim.PreparedFromCore(core); err == nil {
				e.Opt.Trace.Add(obs.CtrPreparedStoreHits, 1)
				s.prep[pat] = p
				return p, nil
			}
		}
	}
	model, err := e.reduceModel(ctx, s)
	if err != nil {
		return nil, err
	}
	p, err := romsim.Prepare(model, terms, romsim.Options{TEnd: e.Opt.TEnd, Dt: e.Opt.Dt, Trace: e.Opt.Trace})
	if err != nil {
		return nil, err
	}
	if storeKey != "" {
		e.Opt.PreparedStore.SavePrepared(storeKey, p.Core())
	}
	s.prep[pat] = p
	return p, nil
}

// DelayResult reports coupled-delay analysis (the paper's Table 2 view).
type DelayResult struct {
	VictimName string
	// Delay is the 50 %–50 % delay from the victim driver switching instant
	// to the worst receiver crossing.
	Delay float64
	// Slew is the receiver-end 20–80 % transition scaled to full swing.
	Slew float64
	// WithCoupling records whether coupling capacitors were active.
	WithCoupling bool
}

// AnalyzeDelay measures the victim's interconnect delay while aggressors
// switch in the opposite direction (worst case) or with coupling grounded
// (the decoupled baseline).
func (e *Engine) AnalyzeDelay(cl *prune.Cluster, victimRising, withCoupling bool) (*DelayResult, error) {
	return e.AnalyzeDelayContext(context.Background(), cl, victimRising, withCoupling)
}

// AnalyzeDelayContext is AnalyzeDelay honoring context cancellation and
// deadlines: both the reduction and the transient poll ctx.
func (e *Engine) AnalyzeDelayContext(ctx context.Context, cl *prune.Cluster, victimRising, withCoupling bool) (*DelayResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The decoupled baseline zeroes coupling capacitors during assembly, so
	// the same circuit yields a different C; the setup's decoupled flag keys
	// the ROM cache apart.
	s, err := e.setup(cl, !withCoupling, nil)
	if err != nil {
		return nil, err
	}
	// Victim switches; aggressors switch opposite (worst case for delay).
	plans := e.planAggressors(cl, !victimRising)
	terms := make([]romsim.Termination, len(s.ckt.Ports))
	vPlan := AggressorPlan{Net: cl.Victim, Cell: e.strongestCell(cl.Victim), Rising: victimRising, SwitchAt: alignTime}
	if terms[s.cp.victimDriver], err = e.driverTermination(vPlan, e.loadEstimate(cl.Victim)); err != nil {
		return nil, err
	}
	for i, pi := range s.cp.aggDrivers {
		if !withCoupling {
			// Decoupled baseline: aggressors electrically irrelevant; hold.
			if terms[pi], err = e.holdTermination(plans[i].Cell, cells.HoldLow); err != nil {
				return nil, err
			}
			continue
		}
		if terms[pi], err = e.driverTermination(plans[i], e.loadEstimate(plans[i].Net)); err != nil {
			return nil, err
		}
	}
	simRes, _, _, err := e.simulate(ctx, s, [][]romsim.Termination{terms})
	if err != nil {
		return nil, err
	}
	return e.delayResult(cl, s.cp, simRes[0], victimRising, withCoupling)
}

// delayResult extracts the worst receiver delay and slew from a finished
// delay transient.
func (e *Engine) delayResult(cl *prune.Cluster, cp *clusterPorts, simRes *romsim.Result,
	victimRising, withCoupling bool) (*DelayResult, error) {
	res := &DelayResult{VictimName: e.Par.Design.Nets[cl.Victim].Name, WithCoupling: withCoupling}
	worst := -math.MaxFloat64
	for _, pi := range cp.receivers {
		w := simRes.Ports[pi]
		cross, ok := w.LastCrossTime(Vdd/2, victimRising)
		if !ok {
			return nil, fmt.Errorf("glitch: victim receiver never crossed 50%% in delay analysis")
		}
		d := cross - alignTime
		if d > worst {
			worst = d
			res.Delay = d
			if s, ok := w.SlewTime(0.2*Vdd, 0.8*Vdd, victimRising); ok {
				res.Slew = s / 0.6
			}
		}
	}
	return res, nil
}
