// Package cells provides the synthetic 0.25 µm standard-cell library that
// stands in for the proprietary library of the paper's experiments: 53 cells
// across inverters, buffers, NAND/NOR gates, AOI/OAI complex gates, tri-state
// buffers, sequential output drivers and clock buffers, each with a
// transistor-level output stage built from the level-1 devices.
//
// The package also characterizes cells against the SPICE-class engine into
// NLDM-style delay/slew tables (Section 4.1's "cell timing library"), from
// which the linear-resistor driver model is deduced.
package cells

import (
	"errors"
	"fmt"
	"sync"

	"xtverify/internal/devices"
	"xtverify/internal/spice"
	"xtverify/internal/waveform"
)

// Sentinel errors for cell resolution and instantiation. Callers match with
// errors.Is; the wrapped message carries the offending name or kind.
var (
	// ErrUnknownCell reports a library lookup for a name that does not exist.
	ErrUnknownCell = errors.New("cells: unknown cell")
	// ErrUnknownKind reports a Cell whose Kind is outside the library's
	// families (a hand-built Cell struct, not a library member).
	ErrUnknownKind = errors.New("cells: unknown cell kind")
)

// Kind enumerates cell families.
type Kind int

// Cell family constants.
const (
	INV Kind = iota
	BUF
	NAND2
	NAND3
	NOR2
	NOR3
	AOI21
	OAI21
	AOI22
	OAI22
	TBUF
	DFF
	LATCH
	CLKBUF
	DLY
)

var kindNames = map[Kind]string{
	INV: "INV", BUF: "BUF", NAND2: "NAND2", NAND3: "NAND3", NOR2: "NOR2",
	NOR3: "NOR3", AOI21: "AOI21", OAI21: "OAI21", AOI22: "AOI22",
	OAI22: "OAI22", TBUF: "TBUF", DFF: "DFF", LATCH: "LATCH",
	CLKBUF: "CLKBUF", DLY: "DLY",
}

func (k Kind) String() string { return kindNames[k] }

// Technology constants for the synthetic library.
const (
	// LDrawn is the drawn channel length.
	LDrawn = 0.25e-6
	// WnBase and WpBase are the X1 output-stage widths.
	WnBase = 0.8e-6
	WpBase = 1.6e-6
	// CGatePerMeter approximates the gate capacitance per meter of width
	// (n- and p-device widths both contribute).
	CGatePerMeter = 1.5e-15 / 1e-6
	// CDiffPerMeter approximates the drain diffusion capacitance per meter
	// of output-stage width.
	CDiffPerMeter = 0.9e-15 / 1e-6
)

// Cell describes one library cell.
type Cell struct {
	// Name is e.g. "NAND2_X4".
	Name string
	// Kind is the logic family.
	Kind Kind
	// Strength is the drive multiple (X1 = 1).
	Strength float64
	// Wn and Wp are the output-stage device widths (already scaled).
	Wn, Wp float64
	// Inputs is the number of logic inputs.
	Inputs int
	// InputCapF is the capacitance presented by one input pin.
	InputCapF float64
	// OutDiffCapF is the parasitic diffusion capacitance at the output.
	OutDiffCapF float64
	// TriState marks cells whose output can float (bus drivers).
	TriState bool
	// Sequential marks storage cells (their inputs are latch/FF data pins —
	// the paper's Section 5 victims are inputs to latches).
	Sequential bool
}

func newCell(kind Kind, strength float64, inputs int, tri, seq bool) *Cell {
	wn := WnBase * strength
	wp := WpBase * strength
	// Series stacks in NAND/NOR pulldown/pullup networks are widened so the
	// worst-case drive matches the inverter of the same strength.
	c := &Cell{
		Kind:       kind,
		Strength:   strength,
		Wn:         wn,
		Wp:         wp,
		Inputs:     inputs,
		TriState:   tri,
		Sequential: seq,
	}
	c.Name = fmt.Sprintf("%s_X%g", kind, strength)
	// Input pin loading: gate cap of the devices the pin drives. Complex
	// gates present roughly one n+p pair per input.
	c.InputCapF = (wn + wp) * CGatePerMeter
	c.OutDiffCapF = (wn + wp) * CDiffPerMeter
	return c
}

var (
	libOnce sync.Once
	library []*Cell
	byName  map[string]*Cell
)

// Library returns the full 53-cell library. The slice is shared; callers
// must not modify it.
func Library() []*Cell {
	libOnce.Do(buildLibrary)
	return library
}

// ByName looks a cell up by name.
func ByName(name string) (*Cell, bool) {
	libOnce.Do(buildLibrary)
	c, ok := byName[name]
	return c, ok
}

// NextStronger returns the same-kind library cell with the smallest
// strength above c's, or nil when c is the strongest of its kind — the
// upsize policy of the repair advisor and the daemon's upsize-driver delta.
func NextStronger(c *Cell) *Cell {
	var best *Cell
	for _, cand := range Library() {
		if cand.Kind != c.Kind || cand.Strength <= c.Strength {
			continue
		}
		if best == nil || cand.Strength < best.Strength {
			best = cand
		}
	}
	return best
}

// Lookup resolves a cell by name, returning an error wrapping ErrUnknownCell
// when the name is not in the library.
func Lookup(name string) (*Cell, error) {
	if c, ok := ByName(name); ok {
		return c, nil
	}
	return nil, fmt.Errorf("%w %q", ErrUnknownCell, name)
}

func buildLibrary() {
	add := func(kind Kind, strengths []float64, inputs int, tri, seq bool) {
		for _, s := range strengths {
			library = append(library, newCell(kind, s, inputs, tri, seq))
		}
	}
	add(INV, []float64{1, 2, 3, 4, 6, 8, 12}, 1, false, false) // 7
	add(BUF, []float64{1, 2, 3, 4, 6, 8, 12}, 1, false, false) // 7
	add(NAND2, []float64{1, 2, 3, 4, 8}, 2, false, false)      // 5
	add(NAND3, []float64{1, 2, 4}, 3, false, false)            // 3
	add(NOR2, []float64{1, 2, 4, 8}, 2, false, false)          // 4
	add(NOR3, []float64{1, 2}, 3, false, false)                // 2
	add(AOI21, []float64{1, 2, 4}, 3, false, false)            // 3
	add(OAI21, []float64{1, 2, 4}, 3, false, false)            // 3
	add(AOI22, []float64{1, 2}, 4, false, false)               // 2
	add(OAI22, []float64{1, 2}, 4, false, false)               // 2
	add(TBUF, []float64{1, 2, 4, 8}, 1, true, false)           // 4
	add(DFF, []float64{1, 2, 4}, 1, false, true)               // 3
	add(LATCH, []float64{1, 2}, 1, false, true)                // 2
	add(CLKBUF, []float64{4, 8, 16, 20}, 1, false, false)      // 4
	add(DLY, []float64{1, 2}, 1, false, false)                 // 2
	byName = make(map[string]*Cell, len(library))
	for _, c := range library {
		byName[c.Name] = c
	}
}

// mos is a local helper building a sized transistor Eval.
func mos(t devices.MOSType, w float64) func(vd, vg, vs float64) (float64, float64, float64) {
	m := &devices.MOSFET{Params: devices.Tech025(t), W: w, L: LDrawn}
	return m.Eval
}

// BuildDriver instantiates the cell's transistor-level drive path into the
// netlist with the switching input connected to `in`, the output at `out`,
// and all side inputs tied to their worst-case drive state (so the cell
// drives with full strength through the switching input). Internal nodes are
// prefixed with the cell name.
//
// The returned polarity is −1 for inverting paths (output falls when the
// input rises) and +1 for non-inverting ones. A Cell whose Kind is not a
// library family yields an error wrapping ErrUnknownKind (and leaves
// whatever was added so far in the netlist — callers discard it).
func (c *Cell) BuildDriver(n *spice.Netlist, prefix string, in, out, vdd spice.Node) (int, error) {
	high := waveform.Const(devices.Vdd025)
	low := waveform.Const(0)
	tieHigh := func(name string) spice.Node {
		nd := n.Node(prefix + "." + name)
		n.Drive(nd, high)
		return nd
	}
	tieLow := func(name string) spice.Node {
		nd := n.Node(prefix + "." + name)
		n.Drive(nd, low)
		return nd
	}
	// Note: the output diffusion parasitic OutDiffCapF is NOT added here —
	// extraction attaches it at the driver node of the net, so cluster
	// netlists carry it exactly once whichever engine hosts the driver.
	// Stand-alone characterization fixtures add it explicitly.
	switch c.Kind {
	case INV:
		n.AddMOS(out, in, spice.Ground, mos(devices.NMOS, c.Wn))
		n.AddMOS(out, in, vdd, mos(devices.PMOS, c.Wp))
		return -1, nil
	case BUF, CLKBUF, DLY, DFF, LATCH:
		// Two inverters; the first is quarter-strength. For sequential cells
		// this is the Q output driver path, which is what crosstalk analysis
		// sees.
		mid := n.Node(prefix + ".mid")
		wn1, wp1 := c.Wn/4, c.Wp/4
		if wn1 < WnBase/4 {
			wn1, wp1 = WnBase/4, WpBase/4
		}
		n.AddMOS(mid, in, spice.Ground, mos(devices.NMOS, wn1))
		n.AddMOS(mid, in, vdd, mos(devices.PMOS, wp1))
		n.AddC(mid, spice.Ground, (c.Wn+c.Wp)*CGatePerMeter)
		n.AddMOS(out, mid, spice.Ground, mos(devices.NMOS, c.Wn))
		n.AddMOS(out, mid, vdd, mos(devices.PMOS, c.Wp))
		return 1, nil
	case NAND2, NAND3:
		// Pulldown: series stack (widened); pullup: parallel PMOS. Side
		// inputs tied high so the switching input controls the gate.
		k := c.Inputs
		wn := c.Wn * float64(k)
		prev := out
		for i := 0; i < k; i++ {
			gate := in
			if i > 0 {
				gate = tieHigh(fmt.Sprintf("nin%d", i))
			}
			var next spice.Node
			if i == k-1 {
				next = spice.Ground
			} else {
				next = n.Node(prefix + fmt.Sprintf(".nstk%d", i))
			}
			n.AddMOS(prev, gate, next, mos(devices.NMOS, wn))
			prev = next
		}
		n.AddMOS(out, in, vdd, mos(devices.PMOS, c.Wp))
		for i := 1; i < k; i++ {
			n.AddMOS(out, tieHigh(fmt.Sprintf("pin%d", i)), vdd, mos(devices.PMOS, c.Wp))
		}
		return -1, nil
	case NOR2, NOR3:
		k := c.Inputs
		wp := c.Wp * float64(k)
		prev := out
		for i := 0; i < k; i++ {
			gate := in
			if i > 0 {
				gate = tieLow(fmt.Sprintf("pin%d", i))
			}
			var next spice.Node
			if i == k-1 {
				next = vdd
			} else {
				next = n.Node(prefix + fmt.Sprintf(".pstk%d", i))
			}
			n.AddMOS(prev, gate, next, mos(devices.PMOS, wp))
			prev = next
		}
		n.AddMOS(out, in, spice.Ground, mos(devices.NMOS, c.Wn))
		for i := 1; i < k; i++ {
			n.AddMOS(out, tieLow(fmt.Sprintf("nin%d", i)), spice.Ground, mos(devices.NMOS, c.Wn))
		}
		return -1, nil
	case AOI21, AOI22:
		// AOI21: out = !(A·B + C). Switching input = C (the fast path):
		// pulldown NMOS from out to ground gated by C; the A·B series branch
		// is tied off. Pullup: series (C, A-or-B parallel pair).
		// The effective drive is a 2-stack pullup, so widen PMOS.
		n.AddMOS(out, in, spice.Ground, mos(devices.NMOS, c.Wn))
		// Tied-off AB branch.
		stk := n.Node(prefix + ".abstk")
		n.AddMOS(out, tieLow("a"), stk, mos(devices.NMOS, 2*c.Wn))
		n.AddMOS(stk, tieLow("b"), spice.Ground, mos(devices.NMOS, 2*c.Wn))
		// Pullup: in-series with parallel tied-low pair (conducting).
		pm := n.Node(prefix + ".pmid")
		n.AddMOS(pm, tieLow("pa"), vdd, mos(devices.PMOS, 2*c.Wp))
		n.AddMOS(pm, tieLow("pb"), vdd, mos(devices.PMOS, 2*c.Wp))
		n.AddMOS(out, in, pm, mos(devices.PMOS, 2*c.Wp))
		return -1, nil
	case OAI21, OAI22:
		// OAI21: out = !((A+B)·C); switching input = C. Pullup PMOS direct;
		// pulldown: series (C, conducting parallel pair).
		n.AddMOS(out, in, vdd, mos(devices.PMOS, c.Wp))
		nm := n.Node(prefix + ".nmid")
		n.AddMOS(nm, tieHigh("na"), spice.Ground, mos(devices.NMOS, 2*c.Wn))
		n.AddMOS(nm, tieHigh("nb"), spice.Ground, mos(devices.NMOS, 2*c.Wn))
		n.AddMOS(out, in, nm, mos(devices.NMOS, 2*c.Wn))
		return -1, nil
	case TBUF:
		// Tri-state buffer, enabled: data path is a buffer whose output
		// stage sits in series with always-on enable devices.
		mid := n.Node(prefix + ".mid")
		n.AddMOS(mid, in, spice.Ground, mos(devices.NMOS, c.Wn/4))
		n.AddMOS(mid, in, vdd, mos(devices.PMOS, c.Wp/4))
		n.AddC(mid, spice.Ground, (c.Wn+c.Wp)*CGatePerMeter/2)
		nstk := n.Node(prefix + ".nstk")
		pstk := n.Node(prefix + ".pstk")
		n.AddMOS(out, tieHigh("en"), nstk, mos(devices.NMOS, 2*c.Wn))
		n.AddMOS(nstk, mid, spice.Ground, mos(devices.NMOS, 2*c.Wn))
		n.AddMOS(out, tieLow("enb"), pstk, mos(devices.PMOS, 2*c.Wp))
		n.AddMOS(pstk, mid, vdd, mos(devices.PMOS, 2*c.Wp))
		return 1, nil
	default:
		return 0, fmt.Errorf("%w %d (cell %q)", ErrUnknownKind, int(c.Kind), c.Name)
	}
}

// HoldState describes which rail the victim driver holds its output at.
type HoldState int

// Hold states.
const (
	HoldLow HoldState = iota
	HoldHigh
)

// BuildHolding instantiates the cell driving a constant output (the victim
// configuration): the switching input is tied so the output is held at the
// requested rail. It fails with ErrUnknownKind for non-library kinds.
func (c *Cell) BuildHolding(n *spice.Netlist, prefix string, out, vdd spice.Node, hold HoldState) error {
	in := n.Node(prefix + ".hold_in")
	pol := c.polarity()
	var v float64
	if (hold == HoldLow) == (pol < 0) {
		v = devices.Vdd025 // inverting cell holding low needs input high
	}
	n.Drive(in, waveform.Const(v))
	_, err := c.BuildDriver(n, prefix, in, out, vdd)
	return err
}

// polarity reports the sign of the cell's in→out path (−1 inverting).
func (c *Cell) polarity() int {
	switch c.Kind {
	case BUF, CLKBUF, DLY, DFF, LATCH, TBUF:
		return 1
	default:
		return -1
	}
}

// Polarity exposes the logic polarity of the drive path.
func (c *Cell) Polarity() int { return c.polarity() }

// MultiStage reports whether the cell's drive path contains more than one
// inverting stage (internal regeneration), which driver-model timing
// calibration accounts for.
func (c *Cell) MultiStage() bool {
	switch c.Kind {
	case BUF, CLKBUF, DLY, DFF, LATCH, TBUF:
		return true
	default:
		return false
	}
}
