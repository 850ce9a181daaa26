// Package design models the chip-level view of a digital design as the
// crosstalk verification flow consumes it: nets with routed Manhattan
// geometry, driver and receiver cell pins, tri-state bus membership, logic
// correlation (complementary flip-flop outputs), and the switching windows
// that static timing attaches.
package design

import (
	"fmt"
	"math"

	"xtverify/internal/cells"
)

// MaxCoordUM bounds the magnitude of every route and pin coordinate, in
// micrometers. 100 m is far beyond any die (the 1M-net synthetic chip of the
// streaming smoke spans about 2 m); the bound keeps the extractor's strip and
// cell indices exact and lets it count a net's pieces before cutting them.
const MaxCoordUM = 1e8

// Segment is one straight Manhattan routing piece of a net, in micrometers.
type Segment struct {
	// Layer is the metal layer index (0-based).
	Layer int
	// X0, Y0, X1, Y1 are the endpoints; exactly one coordinate varies.
	X0, Y0, X1, Y1 float64
	// Width is the drawn wire width in micrometers.
	Width float64
}

// Horizontal reports whether the segment runs in X.
func (s Segment) Horizontal() bool { return s.Y0 == s.Y1 }

// Length returns the Manhattan length in micrometers.
func (s Segment) Length() float64 {
	dx, dy := s.X1-s.X0, s.Y1-s.Y0
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Pin attaches a cell instance pin to a net.
type Pin struct {
	// Inst is the instance name.
	Inst string
	// Cell is the library cell.
	Cell *cells.Cell
	// Pin is the pin name ("Z" for outputs, "A"/"B"/"D" for inputs).
	Pin string
	// Pos is the pin location along the net route (µm), used to attach the
	// pin to the nearest extracted node.
	PosX, PosY float64
}

// Window is the switching window static timing computes for a net: the net
// may transition anywhere in [Early, Late] with the given transition time.
type Window struct {
	// Early and Late bound the switching instant in seconds.
	Early, Late float64
	// Slew is the input transition time at the driver in seconds.
	Slew float64
	// Valid is false before STA has run.
	Valid bool
}

// Overlaps reports whether two valid windows can align in time.
func (w Window) Overlaps(o Window) bool {
	if !w.Valid || !o.Valid {
		return true // unknown timing must be assumed to overlap (conservative)
	}
	return w.Early <= o.Late && o.Early <= w.Late
}

// Net is one routed signal.
type Net struct {
	// Name is the hierarchical net name.
	Name string
	// Index is the net's position in the design's net list.
	Index int
	// Drivers lists the driving pins. More than one driver marks a
	// tri-state bus.
	Drivers []Pin
	// Receivers lists the fanout pins.
	Receivers []Pin
	// Route is the net's geometry.
	Route []Segment
	// Window is the STA switching window.
	Window Window
	// ClockNet marks clock spines (excluded as victims, strong aggressors).
	ClockNet bool
	// Fanins lists indices of nets that feed this net's driver inputs; used
	// by static timing to propagate switching windows. Empty for primary
	// inputs and sequential outputs.
	Fanins []int
}

// IsBus reports whether the net has multiple (tri-state) drivers.
func (n *Net) IsBus() bool { return len(n.Drivers) > 1 }

// StrongestDriver returns the index in Drivers of the driver with the widest
// output stage, the first of equals, or -1 for a net with no driver. It is
// the paper's tri-state bus rule: the strongest of all bus drivers is the
// one switching.
func (n *Net) StrongestDriver() int {
	if len(n.Drivers) == 0 {
		return -1
	}
	best := 0
	for i, p := range n.Drivers[1:] {
		if p.Cell.Wn > n.Drivers[best].Cell.Wn {
			best = i + 1
		}
	}
	return best
}

// Length returns the total routed length in micrometers.
func (n *Net) Length() float64 {
	total := 0.0
	for _, s := range n.Route {
		total += s.Length()
	}
	return total
}

// Design is a netlist with geometry.
type Design struct {
	Name string
	Nets []*Net
	// Complementary lists pairs of net indices driven by complementary
	// flip-flop outputs (Q/QN): they can never switch in the same direction,
	// the paper's example of logic correlation.
	Complementary [][2]int

	byName map[string]*Net
}

// New returns an empty design.
func New(name string) *Design {
	return &Design{Name: name, byName: make(map[string]*Net)}
}

// AddNet appends a net, assigning its index.
func (d *Design) AddNet(n *Net) *Net {
	if _, dup := d.byName[n.Name]; dup {
		panic(fmt.Sprintf("design: duplicate net %q", n.Name))
	}
	n.Index = len(d.Nets)
	d.Nets = append(d.Nets, n)
	d.byName[n.Name] = n
	return n
}

// NetByName finds a net by name.
func (d *Design) NetByName(name string) (*Net, bool) {
	n, ok := d.byName[name]
	return n, ok
}

// MarkComplementary records that nets a and b are Q/QN outputs of the same
// sequential cell.
func (d *Design) MarkComplementary(a, b int) {
	d.Complementary = append(d.Complementary, [2]int{a, b})
}

// AreComplementary reports whether two nets are a recorded Q/QN pair.
func (d *Design) AreComplementary(a, b int) bool {
	for _, p := range d.Complementary {
		if (p[0] == a && p[1] == b) || (p[0] == b && p[1] == a) {
			return true
		}
	}
	return false
}

// Validate checks structural sanity of the design: every net's invariants
// (ValidateNet), then the design-level ones (ValidatePairs).
func (d *Design) Validate() error {
	for _, n := range d.Nets {
		if err := ValidateNet(n); err != nil {
			return err
		}
	}
	return d.ValidatePairs()
}

// ValidatePairs checks the one invariant no single net can: every
// complementary pair names nets of the design. Extraction validates each
// net as it extracts it and runs only this check on the design.
func (d *Design) ValidatePairs() error {
	for _, p := range d.Complementary {
		for _, i := range p {
			if i < 0 || i >= len(d.Nets) {
				return fmt.Errorf("design: complementary pair references net %d out of range", i)
			}
		}
	}
	return nil
}

// NetError is a net that breaks one of ValidateNet's invariants.
type NetError struct {
	// Net is the offending net's name.
	Net string
	// Problem says what is wrong, e.g. "has no driver".
	Problem string
}

func (e *NetError) Error() string { return fmt.Sprintf("design: net %q %s", e.Net, e.Problem) }

// ValidateNet checks the per-net invariants Validate enforces, for callers
// that receive nets one at a time (the streaming ingest path) and never hold
// a whole Design to validate. A failure is a *NetError; a valid net costs no
// allocation.
func ValidateNet(n *Net) error {
	bad := func(problem string) error { return &NetError{Net: n.Name, Problem: problem} }
	if len(n.Drivers) == 0 {
		return bad("has no driver")
	}
	if len(n.Route) == 0 {
		return bad("has no route")
	}
	for _, s := range n.Route {
		if s.X0 != s.X1 && s.Y0 != s.Y1 {
			return bad("has a non-Manhattan segment")
		}
		if s.Width <= 0 {
			return bad("has non-positive wire width")
		}
		if !inBounds(s.X0, s.Y0, s.X1, s.Y1) {
			return bad(fmt.Sprintf("has a segment beyond ±%g µm", MaxCoordUM))
		}
		if int(int32(s.Layer)) != s.Layer {
			return bad(fmt.Sprintf("has layer %d, beyond 32 bits", s.Layer))
		}
	}
	for _, pins := range [...][]Pin{n.Drivers, n.Receivers} {
		for i := range pins {
			p := &pins[i]
			if p.Cell == nil {
				return bad(fmt.Sprintf("pin %s.%s has no cell", p.Inst, p.Pin))
			}
			if !inBounds(p.PosX, p.PosY) {
				return bad(fmt.Sprintf("pin %s.%s lies beyond ±%g µm", p.Inst, p.Pin, MaxCoordUM))
			}
		}
	}
	if n.IsBus() {
		for _, p := range n.Drivers {
			if !p.Cell.TriState {
				return bad("is a bus driven by non-tri-state cell " + p.Cell.Name)
			}
		}
	}
	return nil
}

// inBounds reports whether every coordinate is within ±MaxCoordUM; NaN is
// not.
func inBounds(v ...float64) bool {
	for _, x := range v {
		if !(math.Abs(x) <= MaxCoordUM) {
			return false
		}
	}
	return true
}

// Stats summarizes a design.
type Stats struct {
	Nets, BusNets, ClockNets int
	TotalWirelengthUM        float64
	Receivers                int
}

// Stats computes summary statistics.
func (d *Design) Stats() Stats {
	var s Stats
	s.Nets = len(d.Nets)
	for _, n := range d.Nets {
		if n.IsBus() {
			s.BusNets++
		}
		if n.ClockNet {
			s.ClockNets++
		}
		s.TotalWirelengthUM += n.Length()
		s.Receivers += len(n.Receivers)
	}
	return s
}
