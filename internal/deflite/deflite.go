// Package deflite reads and writes a compact subset of the DEF physical
// design exchange format: component placements and routed nets with layered
// wiring. Together with the structural Verilog netlist (internal/verilog)
// and SPEF parasitics (internal/spef) it makes the synthetic designs fully
// file-representable, the way real chip data arrives at a verification
// tool.
//
// Supported constructs:
//
//	VERSION / DESIGN / UNITS DISTANCE MICRONS headers,
//	COMPONENTS with fixed placements,
//	NETS with pin connections and ROUTED METALn segments (NEW continuations),
//	END markers.
//
// Coordinates are stored in DEF database units (UNITS per micron).
package deflite

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"xtverify/internal/cells"
	"xtverify/internal/design"
)

// dbuPerMicron is the database resolution used by the writer.
const dbuPerMicron = 1000

// ParseError is the typed error Read returns for malformed DEF input. It
// pins the failure to a 1-based input line so tooling can jump to it, and
// wraps the underlying cause (a strconv failure, a design validation error)
// where one exists.
type ParseError struct {
	// Line is the 1-based input line, 0 for file-level failures.
	Line int
	// Msg describes what was malformed.
	Msg string
	// Err is the underlying cause, nil if the message is the whole story.
	Err error
}

// Error renders "deflite: line N: msg" (or "deflite: msg" at file level),
// matching the package's historical error strings.
func (e *ParseError) Error() string {
	at := ""
	if e.Line > 0 {
		at = fmt.Sprintf("line %d: ", e.Line)
	}
	if e.Err != nil {
		return fmt.Sprintf("deflite: %s%s: %v", at, e.Msg, e.Err)
	}
	return fmt.Sprintf("deflite: %s%s", at, e.Msg)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *ParseError) Unwrap() error { return e.Err }

// errNotFinite is the cause of a number that parses but is NaN or infinite
// once converted to microns.
var errNotFinite = errors.New("not a finite number")

// errCoordRange is the cause of a placement or route coordinate beyond
// ±design.MaxCoordUM once converted to microns.
var errCoordRange = fmt.Errorf("beyond ±%g µm", design.MaxCoordUM)

// perr builds a ParseError with a formatted message.
func perr(line int, format string, args ...any) *ParseError {
	return &ParseError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// Write serializes the design.
func Write(w io.Writer, d *design.Design) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "VERSION 5.8 ;\nDESIGN %s ;\nUNITS DISTANCE MICRONS %d ;\n\n", d.Name, dbuPerMicron)
	// Components: every pin instance with its placement.
	type comp struct {
		cell string
		x, y float64
	}
	comps := map[string]comp{}
	var order []string
	addComp := func(p design.Pin) error {
		c, ok := comps[p.Inst]
		if ok {
			if c.cell != p.Cell.Name {
				return fmt.Errorf("deflite: instance %q bound to both %s and %s", p.Inst, c.cell, p.Cell.Name)
			}
			return nil
		}
		comps[p.Inst] = comp{cell: p.Cell.Name, x: p.PosX, y: p.PosY}
		order = append(order, p.Inst)
		return nil
	}
	for _, n := range d.Nets {
		for _, p := range n.Drivers {
			if err := addComp(p); err != nil {
				return err
			}
		}
		for _, p := range n.Receivers {
			if err := addComp(p); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(bw, "COMPONENTS %d ;\n", len(order))
	for _, inst := range order {
		c := comps[inst]
		fmt.Fprintf(bw, "- %s %s + PLACED ( %d %d ) N ;\n", inst, c.cell, dbu(c.x), dbu(c.y))
	}
	fmt.Fprintf(bw, "END COMPONENTS\n\n")

	fmt.Fprintf(bw, "NETS %d ;\n", len(d.Nets))
	for _, n := range d.Nets {
		fmt.Fprintf(bw, "- %s", n.Name)
		for _, p := range n.Drivers {
			fmt.Fprintf(bw, " ( %s %s )", p.Inst, pinOr(p.Pin, "Z"))
		}
		for _, p := range n.Receivers {
			fmt.Fprintf(bw, " ( %s %s )", p.Inst, pinOr(p.Pin, "A"))
		}
		bw.WriteByte('\n')
		if n.ClockNet {
			bw.WriteString("+ USE CLOCK\n")
		}
		for i, s := range n.Route {
			kw := "+ ROUTED"
			if i > 0 {
				kw = "  NEW"
			}
			fmt.Fprintf(bw, "%s METAL%d %d ( %d %d ) ( %d %d )\n",
				kw, s.Layer, dbu(s.Width), dbu(s.X0), dbu(s.Y0), dbu(s.X1), dbu(s.Y1))
		}
		fmt.Fprintf(bw, ";\n")
	}
	fmt.Fprintf(bw, "END NETS\nEND DESIGN\n")
	return bw.Flush()
}

func dbu(um float64) int { return int(um*dbuPerMicron + 0.5*sign(um)) }

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}

func pinOr(p, def string) string {
	if p == "" {
		return def
	}
	return p
}

// Sink receives a streamed DEF parse: the design header, then every net in
// file order, each complete with its pins and routed segments. StreamRead
// never retains a net after handing it over, so a sink that does not
// accumulate keeps parsing memory O(components + one net).
type Sink interface {
	// StartDesign is called once, at the DESIGN statement, before any net.
	StartDesign(name string) error
	// AddNet is called once per net, in file order. The net's Index is not
	// assigned — numbering nets is the sink's job.
	AddNet(n *design.Net) error
}

// Read parses a DEF-lite file back into a design, resolving cells from the
// bundled library. The result passes design.Validate and extracts
// identically to the original. Read is the materializing front of
// StreamRead: it accumulates every net into one design and validates the
// whole at EOF.
func Read(r io.Reader) (*design.Design, error) {
	var d *design.Design
	if err := StreamRead(r, &materializeSink{d: &d}); err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, &ParseError{Msg: "reconstructed design invalid", Err: err}
	}
	return d, nil
}

// materializeSink accumulates a streamed parse into one design.
type materializeSink struct{ d **design.Design }

func (m *materializeSink) StartDesign(name string) error {
	*m.d = design.New(name)
	return nil
}

func (m *materializeSink) AddNet(n *design.Net) error {
	(*m.d).AddNet(n)
	return nil
}

// StreamRead parses a DEF-lite file incrementally, handing each net to sink
// the moment its terminating ";" (or the section END) is seen. A sink error
// aborts the parse and is returned verbatim. Unlike Read it performs no
// whole-design validation — per-net checks are the sink's responsibility
// (design.ValidateNet) — but it does reject a repeated net name, which no
// sink that forgets earlier nets could detect.
func StreamRead(r io.Reader, sink Sink) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		started  bool
		dbuPerUM = float64(dbuPerMicron)
		section  string
		comps    = map[string]compInfo{}
		curNet   *design.Net
		lineNo   int
		// netNames holds a 64-bit hash of every net name seen, about 8 bytes
		// a net instead of the names themselves, so a streamed parse stays
		// O(components + one net). Two distinct names that collide are
		// rejected as a duplicate: a loud, ~n²/2⁶⁵ chance (3·10⁻⁸ at 1M
		// nets), never a silently wrong report.
		netNames = map[uint64]struct{}{}
	)
	// toUM converts a DBU token to microns. strconv accepts "NaN" and
	// "Inf", and a finite token can overflow under a tiny UNITS. Neither may
	// reach a design: extraction drops a segment with a non-finite end and
	// attaches a pin at a non-finite position to node 0.
	toUM := func(tok string) (float64, error) {
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return 0, err
		}
		um := v / dbuPerUM
		if math.IsNaN(um) || math.IsInf(um, 0) {
			return 0, errNotFinite
		}
		return um, nil
	}
	// toCoordUM is toUM for a placement or route coordinate, which must also
	// lie within ±design.MaxCoordUM: a finite but huge one would have
	// extraction cut a wire into billions of pieces.
	toCoordUM := func(tok string) (float64, error) {
		um, err := toUM(tok)
		if err == nil && !(math.Abs(um) <= design.MaxCoordUM) {
			return 0, errCoordRange
		}
		return um, err
	}
	flushNet := func() error {
		if curNet != nil && started {
			n := curNet
			curNet = nil
			return sink.AddNet(n)
		}
		return nil
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch {
		case f[0] == "VERSION":
			// accepted
		case f[0] == "DESIGN" && len(f) >= 2 && !started:
			started = true
			if err := sink.StartDesign(f[1]); err != nil {
				return err
			}
		case f[0] == "UNITS":
			if len(f) >= 4 {
				v, err := strconv.ParseFloat(f[3], 64)
				if err != nil || !(v > 0) || math.IsInf(v, 1) {
					return perr(lineNo, "bad UNITS")
				}
				dbuPerUM = v
			}
		case f[0] == "COMPONENTS":
			section = "COMPONENTS"
		case f[0] == "NETS":
			section = "NETS"
		case f[0] == "END":
			if section == "NETS" {
				if err := flushNet(); err != nil {
					return err
				}
			}
			section = ""
		case strings.HasPrefix(line, "- ") && section == "COMPONENTS":
			// - inst cell + PLACED ( x y ) N ;
			if len(f) < 9 {
				return perr(lineNo, "malformed component")
			}
			x, err1 := toCoordUM(f[6])
			y, err2 := toCoordUM(f[7])
			if err1 != nil || err2 != nil {
				return &ParseError{Line: lineNo, Msg: "bad placement", Err: cmp.Or(err1, err2)}
			}
			cell, ok := cells.ByName(f[2])
			if !ok {
				return perr(lineNo, "unknown cell %q", f[2])
			}
			comps[f[1]] = compInfo{cell: cell, x: x, y: y}
		case strings.HasPrefix(line, "- ") && section == "NETS":
			if err := flushNet(); err != nil {
				return err
			}
			h := nameHash(f[1])
			if _, dup := netNames[h]; dup {
				return perr(lineNo, "duplicate net name %q", f[1])
			}
			netNames[h] = struct{}{}
			curNet = &design.Net{Name: f[1]}
			// Pin connections: ( inst pin ) groups on the same line.
			for i := 2; i+3 < len(f)+1; {
				if f[i] != "(" {
					break
				}
				if i+3 >= len(f) || f[i+3] != ")" {
					return perr(lineNo, "malformed pin group")
				}
				inst, pin := f[i+1], f[i+2]
				ci, ok := comps[inst]
				if !ok {
					return perr(lineNo, "pin on undeclared component %q", inst)
				}
				dp := design.Pin{Inst: inst, Cell: ci.cell, Pin: pin, PosX: ci.x, PosY: ci.y}
				if pin == "Z" || pin == "Q" || pin == "QN" || pin == "Y" {
					curNet.Drivers = append(curNet.Drivers, dp)
				} else {
					curNet.Receivers = append(curNet.Receivers, dp)
				}
				i += 4
			}
		case f[0] == "+" && len(f) > 1 && f[1] == "USE":
			if curNet == nil {
				return perr(lineNo, "USE outside net")
			}
			if len(f) >= 3 && f[2] == "CLOCK" {
				curNet.ClockNet = true
			}
		case (f[0] == "+" && len(f) > 1 && f[1] == "ROUTED") || f[0] == "NEW":
			if curNet == nil {
				return perr(lineNo, "route outside net")
			}
			// [+ ROUTED|NEW] METALn width ( x0 y0 ) ( x1 y1 )
			idx := 1
			if f[0] == "+" {
				idx = 2
			}
			if len(f) < idx+9 {
				return perr(lineNo, "malformed route")
			}
			layerTok := f[idx]
			if !strings.HasPrefix(layerTok, "METAL") {
				return perr(lineNo, "bad layer %q", layerTok)
			}
			// The extractor keeps a layer in 32 bits.
			layer, err := strconv.ParseInt(strings.TrimPrefix(layerTok, "METAL"), 10, 32)
			if err != nil {
				return perr(lineNo, "bad layer %q", layerTok)
			}
			width, err := toUM(f[idx+1])
			if err != nil {
				return perr(lineNo, "bad width")
			}
			var coords [4]float64
			ci := 0
			for _, tok := range f[idx+2:] {
				if tok == "(" || tok == ")" {
					continue
				}
				if ci >= 4 {
					break
				}
				v, err := toCoordUM(tok)
				if err != nil {
					return &ParseError{Line: lineNo, Msg: fmt.Sprintf("bad coordinate %q", tok), Err: err}
				}
				coords[ci] = v
				ci++
			}
			if ci != 4 {
				return perr(lineNo, "route needs 4 coordinates")
			}
			curNet.Route = append(curNet.Route, design.Segment{
				Layer: int(layer), Width: width,
				X0: coords[0], Y0: coords[1], X1: coords[2], Y1: coords[3],
			})
		case f[0] == ";":
			if section == "NETS" {
				if err := flushNet(); err != nil {
					return err
				}
			}
		default:
			return perr(lineNo, "unexpected %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return &ParseError{Line: lineNo + 1, Msg: "unreadable line", Err: err}
	}
	if !started {
		return &ParseError{Msg: "no DESIGN statement"}
	}
	return nil
}

type compInfo struct {
	cell *cells.Cell
	x, y float64
}

// nameHash is the 64-bit FNV-1a hash of a net name.
func nameHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
