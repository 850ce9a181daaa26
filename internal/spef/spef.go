// Package spef reads and writes a faithful subset of the Standard Parasitic
// Exchange Format (IEEE 1481), the form in which "parasitic data from
// extraction" arrives in the paper's flow. Supported constructs: the header
// with unit declarations, *D_NET sections with *CONN, *CAP (grounded and
// coupling) and *RES subsections, and *END.
//
// Node names use the conventional <net>:<index> form; pin names use
// <instance>:<pin>.
package spef

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"xtverify/internal/extract"
)

// Pin is a *CONN entry.
type Pin struct {
	// Name is "instance:pin".
	Name string
	// Dir is "I" (input/receiver), "O" (output/driver) or "B".
	Dir string
	// Node is the net node index the pin attaches to.
	Node int
}

// Cap is a *CAP entry; coupling entries have OtherNet non-empty.
type Cap struct {
	Node      int
	OtherNet  string
	OtherNode int
	Farads    float64
}

// Res is a *RES entry.
type Res struct {
	A, B int
	Ohms float64
}

// Net is one *D_NET section.
type Net struct {
	Name      string
	TotalCapF float64
	Pins      []Pin
	Caps      []Cap
	Ress      []Res
}

// File is a parsed SPEF file.
type File struct {
	// Header fields (subset).
	Design   string
	CapUnitF float64 // multiplier: file cap value × CapUnitF = farads
	ResUnitO float64
	Nets     []*Net

	byName map[string]*Net
}

// NetByName finds a net section.
func (f *File) NetByName(name string) (*Net, bool) {
	n, ok := f.byName[name]
	return n, ok
}

// Write serializes extraction results as SPEF with a *NAME_MAP section:
// every net name is registered once and referenced as *<index> thereafter,
// the standard SPEF compression. Capacitances are emitted in femtofarads
// and resistances in ohms (declared in the header).
func Write(w io.Writer, p *extract.Parasitics) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "*SPEF \"IEEE 1481 subset\"\n")
	fmt.Fprintf(bw, "*DESIGN \"%s\"\n", p.Design.Name)
	fmt.Fprintf(bw, "*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n*L_UNIT 1 HENRY\n")
	// Name map: net index i maps to *<i+1>.
	fmt.Fprintf(bw, "\n*NAME_MAP\n")
	ref := make([]string, len(p.Design.Nets))
	for i, n := range p.Design.Nets {
		ref[i] = fmt.Sprintf("*%d", i+1)
		fmt.Fprintf(bw, "*%d %s\n", i+1, n.Name)
	}
	var partners []extract.Partner
	for i, rc := range p.Nets {
		net := rc.Net
		total := rc.TotalCapF()
		// Sum in partner order so repeated writes are byte-identical.
		partners = p.AppendPartners(partners[:0], i)
		for _, pa := range partners {
			total += pa.Farads
		}
		me := ref[i]
		fmt.Fprintf(bw, "\n*D_NET %s %.6f\n", me, total/1e-15)
		fmt.Fprintf(bw, "*CONN\n")
		for di, pin := range net.Drivers {
			fmt.Fprintf(bw, "*I %s:%s O *N %s:%d\n", pin.Inst, pin.Pin, me, rc.DriverNodes[di])
		}
		for ri, pin := range net.Receivers {
			fmt.Fprintf(bw, "*I %s:%s I *N %s:%d\n", pin.Inst, pin.Pin, me, rc.ReceiverNodes[ri])
		}
		fmt.Fprintf(bw, "*CAP\n")
		id := 1
		for node, c := range rc.CapF {
			if c <= 0 {
				continue
			}
			fmt.Fprintf(bw, "%d %s:%d %.6f\n", id, me, node, c/1e-15)
			id++
		}
		// Each coupling is emitted once, under its lower-indexed net.
		for _, k := range p.NetCouplings(i) {
			c := &p.Couplings[k]
			if c.NetA != i {
				continue
			}
			fmt.Fprintf(bw, "%d %s:%d %s:%d %.6f\n", id, me, c.NodeA, ref[c.NetB], c.NodeB, c.Farads/1e-15)
			id++
		}
		fmt.Fprintf(bw, "*RES\n")
		id = 1
		for _, r := range rc.Res {
			fmt.Fprintf(bw, "%d %s:%d %s:%d %.6f\n", id, me, r.A, me, r.B, r.Ohms)
			id++
		}
		fmt.Fprintf(bw, "*END\n")
	}
	return bw.Flush()
}

// Write re-serializes a parsed File in the exact dialect the package-level
// Write emits: FF/OHM units, a *NAME_MAP built from the nets in order
// (net i referenced as *<i+1>), and *D_NET sections with *CONN, *CAP and
// *RES in stored order. For any file produced by the package-level Write,
// Parse followed by this method reproduces the input byte-for-byte (pinned
// by TestFileRoundTripByteIdentical); files using other units are
// normalized to FF/OHM on re-serialization.
func (f *File) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "*SPEF \"IEEE 1481 subset\"\n")
	fmt.Fprintf(bw, "*DESIGN \"%s\"\n", f.Design)
	fmt.Fprintf(bw, "*T_UNIT 1 PS\n*C_UNIT 1 FF\n*R_UNIT 1 OHM\n*L_UNIT 1 HENRY\n")
	fmt.Fprintf(bw, "\n*NAME_MAP\n")
	ref := make(map[string]string, len(f.Nets))
	for i, n := range f.Nets {
		ref[n.Name] = fmt.Sprintf("*%d", i+1)
		fmt.Fprintf(bw, "*%d %s\n", i+1, n.Name)
	}
	// Coupling partners that have no section of their own (possible in
	// hand-written files) are referenced by their literal name.
	refOf := func(name string) string {
		if r, ok := ref[name]; ok {
			return r
		}
		return name
	}
	for _, n := range f.Nets {
		me := refOf(n.Name)
		fmt.Fprintf(bw, "\n*D_NET %s %.6f\n", me, n.TotalCapF/1e-15)
		fmt.Fprintf(bw, "*CONN\n")
		for _, pin := range n.Pins {
			fmt.Fprintf(bw, "*I %s %s *N %s:%d\n", pin.Name, pin.Dir, me, pin.Node)
		}
		fmt.Fprintf(bw, "*CAP\n")
		for id, c := range n.Caps {
			if c.OtherNet == "" {
				fmt.Fprintf(bw, "%d %s:%d %.6f\n", id+1, me, c.Node, c.Farads/1e-15)
			} else {
				fmt.Fprintf(bw, "%d %s:%d %s:%d %.6f\n", id+1, me, c.Node, refOf(c.OtherNet), c.OtherNode, c.Farads/1e-15)
			}
		}
		fmt.Fprintf(bw, "*RES\n")
		for id, r := range n.Ress {
			fmt.Fprintf(bw, "%d %s:%d %s:%d %.6f\n", id+1, me, r.A, me, r.B, r.Ohms)
		}
		fmt.Fprintf(bw, "*END\n")
	}
	return bw.Flush()
}

// ParseError reports malformed SPEF input with the 1-based line it was
// detected on. Parse returns it for every grammar failure; errors from the
// underlying reader are returned as-is, not wrapped.
type ParseError struct {
	// Line is the 1-based input line the malformation was detected on.
	Line int
	// Msg describes the malformation ("malformed *D_NET", "data outside
	// section", ...). May be empty when Err alone tells the story.
	Msg string
	// Err is the underlying cause (a strconv failure, a malformed node
	// reference); nil when Msg stands alone.
	Err error
}

// Error renders the historical "spef: line N: ..." form.
func (e *ParseError) Error() string {
	switch {
	case e.Msg != "" && e.Err != nil:
		return fmt.Sprintf("spef: line %d: %s: %v", e.Line, e.Msg, e.Err)
	case e.Err != nil:
		return fmt.Sprintf("spef: line %d: %v", e.Line, e.Err)
	default:
		return fmt.Sprintf("spef: line %d: %s", e.Line, e.Msg)
	}
}

// Unwrap exposes the cause to errors.Is/As.
func (e *ParseError) Unwrap() error { return e.Err }

// Parse reads a SPEF file. Malformed input returns a *ParseError carrying
// the offending line. A net's own name is resolved through the name map
// entries read before its *D_NET line; coupling references are resolved
// through the complete *NAME_MAP at EOF.
func Parse(r io.Reader) (*File, error) {
	f := &File{CapUnitF: 1e-15, ResUnitO: 1, byName: make(map[string]*Net)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var cur *Net
	section := ""
	lineNo := 0
	nameMap := map[string]string{}
	resolve := func(s string) string {
		if full, ok := nameMap[s]; ok {
			return full
		}
		return s
	}
	// flush files the open *D_NET section, which closes at its *END, at the
	// next *D_NET or at EOF.
	flush := func() {
		if cur != nil {
			f.Nets = append(f.Nets, cur)
			f.byName[cur.Name] = cur
			cur = nil
		}
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		fields := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "*SPEF"):
			// ignore
		case strings.HasPrefix(line, "*DESIGN"):
			f.Design = strings.Trim(strings.TrimSpace(strings.TrimPrefix(line, "*DESIGN")), "\"")
		case strings.HasPrefix(line, "*C_UNIT"):
			mult, unit, err := parseUnit(fields)
			if err != nil {
				return nil, &ParseError{Line: lineNo, Err: err}
			}
			switch unit {
			case "FF":
				f.CapUnitF = mult * 1e-15
			case "PF":
				f.CapUnitF = mult * 1e-12
			default:
				return nil, &ParseError{Line: lineNo, Msg: fmt.Sprintf("unsupported cap unit %q", unit)}
			}
		case strings.HasPrefix(line, "*R_UNIT"):
			mult, unit, err := parseUnit(fields)
			if err != nil {
				return nil, &ParseError{Line: lineNo, Err: err}
			}
			switch unit {
			case "OHM":
				f.ResUnitO = mult
			case "KOHM":
				f.ResUnitO = mult * 1e3
			default:
				return nil, &ParseError{Line: lineNo, Msg: fmt.Sprintf("unsupported res unit %q", unit)}
			}
		case strings.HasPrefix(line, "*T_UNIT"), strings.HasPrefix(line, "*L_UNIT"):
			// accepted, unused
		case line == "*NAME_MAP":
			section = "*NAME_MAP"
		case section == "*NAME_MAP" && strings.HasPrefix(line, "*") && !strings.HasPrefix(line, "*D_NET"):
			if len(fields) != 2 {
				return nil, &ParseError{Line: lineNo, Msg: "malformed name map entry"}
			}
			nameMap[fields[0]] = fields[1]
		case strings.HasPrefix(line, "*D_NET"):
			if len(fields) != 3 {
				return nil, &ParseError{Line: lineNo, Msg: "malformed *D_NET"}
			}
			tc, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, &ParseError{Line: lineNo, Msg: "bad total cap", Err: err}
			}
			flush()
			cur = &Net{Name: resolve(fields[1]), TotalCapF: tc * f.CapUnitF}
			section = ""
		case line == "*CONN" || line == "*CAP" || line == "*RES":
			if cur == nil {
				return nil, &ParseError{Line: lineNo, Msg: "section outside *D_NET"}
			}
			section = line
		case line == "*END":
			section = ""
			flush()
		case strings.HasPrefix(line, "*I "):
			if cur == nil || section != "*CONN" {
				return nil, &ParseError{Line: lineNo, Msg: "*I outside *CONN"}
			}
			// *I inst:pin DIR *N net:node
			if len(fields) < 5 || fields[3] != "*N" {
				return nil, &ParseError{Line: lineNo, Msg: "malformed *I"}
			}
			_, node, err := splitNode(fields[4])
			if err != nil {
				return nil, &ParseError{Line: lineNo, Err: err}
			}
			cur.Pins = append(cur.Pins, Pin{Name: fields[1], Dir: fields[2], Node: node})
		default:
			if cur == nil {
				return nil, &ParseError{Line: lineNo, Msg: fmt.Sprintf("unexpected %q", line)}
			}
			switch section {
			case "*CAP":
				if err := parseCap(cur, fields, f.CapUnitF); err != nil {
					return nil, &ParseError{Line: lineNo, Err: err}
				}
			case "*RES":
				if err := parseRes(cur, fields, f.ResUnitO); err != nil {
					return nil, &ParseError{Line: lineNo, Err: err}
				}
			default:
				return nil, &ParseError{Line: lineNo, Msg: "data outside section"}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	// Resolve mapped names in coupling references.
	for _, n := range f.Nets {
		for i := range n.Caps {
			if full, ok := nameMap[n.Caps[i].OtherNet]; n.Caps[i].OtherNet != "" && ok {
				n.Caps[i].OtherNet = full
			}
		}
	}
	return f, nil
}

func parseUnit(fields []string) (mult float64, unit string, err error) {
	if len(fields) != 3 {
		return 0, "", fmt.Errorf("malformed unit declaration")
	}
	mult, err = strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, "", err
	}
	return mult, strings.ToUpper(fields[2]), nil
}

func splitNode(s string) (net string, node int, err error) {
	i := strings.LastIndex(s, ":")
	if i < 0 {
		return "", 0, fmt.Errorf("node %q missing ':'", s)
	}
	node, err = strconv.Atoi(s[i+1:])
	if err != nil {
		return "", 0, fmt.Errorf("node %q: %w", s, err)
	}
	return s[:i], node, nil
}

func parseCap(cur *Net, fields []string, unit float64) error {
	switch len(fields) {
	case 3: // grounded: id node value
		_, node, err := splitNode(fields[1])
		if err != nil {
			return err
		}
		v, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return err
		}
		cur.Caps = append(cur.Caps, Cap{Node: node, Farads: v * unit})
	case 4: // coupling: id nodeA nodeB value
		_, node, err := splitNode(fields[1])
		if err != nil {
			return err
		}
		oNet, oNode, err := splitNode(fields[2])
		if err != nil {
			return err
		}
		v, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return err
		}
		cur.Caps = append(cur.Caps, Cap{Node: node, OtherNet: oNet, OtherNode: oNode, Farads: v * unit})
	default:
		return fmt.Errorf("malformed *CAP entry")
	}
	return nil
}

func parseRes(cur *Net, fields []string, unit float64) error {
	if len(fields) != 4 {
		return fmt.Errorf("malformed *RES entry")
	}
	_, a, err := splitNode(fields[1])
	if err != nil {
		return err
	}
	_, b, err := splitNode(fields[2])
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(fields[3], 64)
	if err != nil {
		return err
	}
	cur.Ress = append(cur.Ress, Res{A: a, B: b, Ohms: v * unit})
	return nil
}

// Stats summarizes a parsed file.
type Stats struct {
	Nets, Pins, GroundCaps, CouplingCaps, Resistors int
	TotalCapF                                       float64
}

// Stats aggregates counts.
func (f *File) Stats() Stats {
	var s Stats
	s.Nets = len(f.Nets)
	for _, n := range f.Nets {
		s.Pins += len(n.Pins)
		s.Resistors += len(n.Ress)
		for _, c := range n.Caps {
			if c.OtherNet == "" {
				s.GroundCaps++
			} else {
				s.CouplingCaps++
			}
			s.TotalCapF += c.Farads
		}
	}
	return s
}

// NetNamesSorted returns all net names in sorted order.
func (f *File) NetNamesSorted() []string {
	out := make([]string, 0, len(f.Nets))
	for _, n := range f.Nets {
		out = append(out, n.Name)
	}
	sort.Strings(out)
	return out
}
