package spef

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"xtverify/internal/dsp"
	"xtverify/internal/extract"
)

func roundTrip(t *testing.T, p *extract.Parasitics) *File {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	f, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRoundTripParallelWires(t *testing.T) {
	d, err := dsp.ParallelWires(3, 500, 1.2, []string{"INV_X2"}, "NAND2_X1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := extract.Extract(d, extract.Tech025())
	if err != nil {
		t.Fatal(err)
	}
	f := roundTrip(t, p)
	if f.Design != d.Name {
		t.Errorf("design name %q", f.Design)
	}
	if len(f.Nets) != 3 {
		t.Fatalf("%d nets", len(f.Nets))
	}
	// Resistance round trip.
	n0, ok := f.NetByName("w0")
	if !ok {
		t.Fatal("w0 missing")
	}
	var rTot float64
	for _, r := range n0.Ress {
		rTot += r.Ohms
	}
	var want float64
	for _, r := range p.Nets[0].Res {
		want += r.Ohms
	}
	if math.Abs(rTot-want) > 1e-6*want {
		t.Errorf("resistance round trip: %g vs %g", rTot, want)
	}
	// Cap round trip within the fF print precision.
	var cTot float64
	for _, c := range n0.Caps {
		cTot += c.Farads
	}
	wantC := p.Nets[0].TotalCapF()
	for _, pa := range p.AppendPartners(nil, 0) {
		wantC += pa.Farads
	}
	if math.Abs(cTot-wantC) > 1e-3*wantC {
		t.Errorf("cap round trip: %g vs %g", cTot, wantC)
	}
	// Pins preserved with directions.
	drv, rcv := 0, 0
	for _, pin := range n0.Pins {
		switch pin.Dir {
		case "O":
			drv++
		case "I":
			rcv++
		}
	}
	if drv != 1 || rcv != 1 {
		t.Errorf("pins: %d drivers, %d receivers", drv, rcv)
	}
}

func TestRoundTripDSPStats(t *testing.T) {
	d, err := dsp.Generate(dsp.Config{Seed: 12, Channels: 1, TracksPerChannel: 25, ChannelLengthUM: 700, BusFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := extract.Extract(d, extract.Tech025())
	if err != nil {
		t.Fatal(err)
	}
	f := roundTrip(t, p)
	st := f.Stats()
	ps := p.Stats()
	if st.Nets != ps.Nets {
		t.Errorf("nets %d vs %d", st.Nets, ps.Nets)
	}
	if st.CouplingCaps != ps.Couplings {
		t.Errorf("couplings %d vs %d", st.CouplingCaps, ps.Couplings)
	}
	if st.Resistors != ps.Resistors {
		t.Errorf("resistors %d vs %d", st.Resistors, ps.Resistors)
	}
	if math.Abs(st.TotalCapF-ps.TotalCapF) > 1e-3*ps.TotalCapF {
		t.Errorf("total cap %g vs %g", st.TotalCapF, ps.TotalCapF)
	}
}

func TestParseUnits(t *testing.T) {
	src := `*SPEF "x"
*DESIGN "u"
*C_UNIT 1 PF
*R_UNIT 1 KOHM
*D_NET n 1.0
*CAP
1 n:0 2.0
*RES
1 n:0 n:1 3.0
*END
`
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	n := f.Nets[0]
	if math.Abs(n.Caps[0].Farads-2e-12) > 1e-20 {
		t.Errorf("PF cap = %g", n.Caps[0].Farads)
	}
	if math.Abs(n.Ress[0].Ohms-3000) > 1e-9 {
		t.Errorf("KOHM res = %g", n.Ress[0].Ohms)
	}
	if math.Abs(n.TotalCapF-1e-12) > 1e-20 {
		t.Errorf("total cap = %g", n.TotalCapF)
	}
}

func TestParseCoupling(t *testing.T) {
	src := `*SPEF "x"
*C_UNIT 1 FF
*D_NET a 1.0
*CAP
1 a:3 b:7 0.5
*END
`
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	c := f.Nets[0].Caps[0]
	if c.OtherNet != "b" || c.OtherNode != 7 || c.Node != 3 {
		t.Errorf("coupling parse: %+v", c)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"data outside net": "1 a:0 2.0\n",
		"bad D_NET":        "*D_NET onlyname\n",
		"bad unit":         "*C_UNIT 1 PARSEC\n",
		"section outside":  "*CAP\n",
		"malformed cap":    "*D_NET n 1.0\n*CAP\n1 n:0\n*END\n",
		"bad node":         "*D_NET n 1.0\n*RES\n1 n:0 nocolon 5\n*END\n",
		"conn outside":     "*D_NET n 1.0\n*I a:Z O *N n:0\n*END\n",
	}
	for name, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("%s: error not reported", name)
		}
	}
}

// TestParseMalformedMidFile pins the typed error contract: a record that
// goes bad after valid ones surfaces a *ParseError naming the exact input
// line, its message and, where there is one, its cause.
func TestParseMalformedMidFile(t *testing.T) {
	// All inputs but the name-map one share a valid first net on lines 1-4.
	const goodNet = "*D_NET n1 1.5\n*CAP\n1 n1:0 2.0\n*END\n"
	cases := []struct {
		name     string
		src      string
		wantLine int
		wantMsg  string // substring of Error()
		wrapped  bool   // Err (the cause) must be non-nil
	}{
		{
			name:     "cap entry arity",
			src:      goodNet + "*D_NET n2 1.0\n*CAP\n1 n2:0\n*END\n",
			wantLine: 7,
			wantMsg:  "malformed *CAP entry",
			wrapped:  true,
		},
		{
			name:     "res node missing colon",
			src:      goodNet + "*D_NET n2 1.0\n*RES\n1 n2:0 nocolon 5\n*END\n",
			wantLine: 7,
			wantMsg:  `node "nocolon" missing ':'`,
			wrapped:  true,
		},
		{
			name:     "non-numeric cap value",
			src:      goodNet + "*D_NET n2 1.0\n*CAP\n1 n2:0 tiny\n*END\n",
			wantLine: 7,
			wantMsg:  "invalid syntax",
			wrapped:  true,
		},
		{
			name:     "bad total cap",
			src:      goodNet + "*D_NET n2 huge\n",
			wantLine: 5,
			wantMsg:  "bad total cap",
			wrapped:  true,
		},
		{
			name:     "malformed D_NET arity",
			src:      goodNet + "*D_NET onlyname\n",
			wantLine: 5,
			wantMsg:  "malformed *D_NET",
		},
		{
			name:     "conn entry outside CONN",
			src:      goodNet + "*D_NET n2 1.0\n*CAP\n*I u1:A I *N n2:0\n*END\n",
			wantLine: 7,
			wantMsg:  "*I outside *CONN",
		},
		{
			name:     "malformed conn entry",
			src:      goodNet + "*D_NET n2 1.0\n*CONN\n*I u1:A I n2:0\n*END\n",
			wantLine: 7,
			wantMsg:  "malformed *I",
		},
		{
			name:     "data outside any section",
			src:      goodNet + "*D_NET n2 1.0\n1 n2:0 2.0\n*END\n",
			wantLine: 6,
			wantMsg:  "data outside section",
		},
		{
			name:     "stray data after END",
			src:      goodNet + "1 n1:0 2.0\n",
			wantLine: 5,
			wantMsg:  `unexpected "1 n1:0 2.0"`,
		},
		{
			name:     "unsupported unit between nets",
			src:      goodNet + "*C_UNIT 1 PARSEC\n",
			wantLine: 5,
			wantMsg:  `unsupported cap unit "PARSEC"`,
		},
		{
			name:     "malformed name map entry",
			src:      "*NAME_MAP\n*1 w0\n*2\n",
			wantLine: 3,
			wantMsg:  "malformed name map entry",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.src))
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("Parse = %v, want *ParseError", err)
			}
			if pe.Line != tc.wantLine {
				t.Errorf("error line = %d, want %d (%v)", pe.Line, tc.wantLine, pe)
			}
			//xtlint:errcmp parser test asserting the rendered line prefix
			if !strings.Contains(pe.Error(), "spef: line "+strconv.Itoa(tc.wantLine)+": ") {
				t.Errorf("error %q lacks the line prefix", pe.Error())
			}
			//xtlint:errcmp parser test asserting the diagnostic message content
			if !strings.Contains(pe.Error(), tc.wantMsg) {
				t.Errorf("error %q lacks %q", pe.Error(), tc.wantMsg)
			}
			if tc.wrapped && pe.Unwrap() == nil {
				t.Errorf("error %v carries no cause", pe)
			}
		})
	}
}

func TestNetNamesSorted(t *testing.T) {
	src := "*SPEF \"x\"\n*D_NET z 0\n*END\n*D_NET a 0\n*END\n"
	f, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	names := f.NetNamesSorted()
	if names[0] != "a" || names[1] != "z" {
		t.Errorf("sorted names %v", names)
	}
}

func TestNameMapEmittedAndResolved(t *testing.T) {
	d, err := dsp.ParallelWires(2, 300, 1.2, []string{"INV_X2"}, "INV_X1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := extract.Extract(d, extract.Tech025())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, p); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "*NAME_MAP") || !strings.Contains(out, "*1 w0") {
		t.Fatal("NAME_MAP section missing")
	}
	// Net bodies use mapped references, not raw names.
	if strings.Contains(out, "*D_NET w0") {
		t.Error("D_NET should use mapped reference")
	}
	f, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Parsed nets carry the resolved full names.
	if _, ok := f.NetByName("w0"); !ok {
		t.Fatal("mapped net name not resolved")
	}
	// Coupling references resolve through the map too.
	n0, _ := f.NetByName("w0")
	found := false
	for _, c := range n0.Caps {
		if c.OtherNet == "w1" {
			found = true
		}
		if strings.HasPrefix(c.OtherNet, "*") {
			t.Errorf("unresolved coupling reference %q", c.OtherNet)
		}
	}
	n1, _ := f.NetByName("w1")
	for _, c := range n1.Caps {
		if c.OtherNet == "w0" {
			found = true
		}
	}
	if !found {
		t.Error("coupling between w0 and w1 lost")
	}
}

// TestFileRoundTripByteIdentical is the serialization golden test: SPEF
// emitted from extraction, parsed back, and re-serialized with (*File).Write
// must reproduce the original bytes exactly — any drift in ordering, number
// formatting, name-map assignment or section layout shows up as a diff here.
func TestFileRoundTripByteIdentical(t *testing.T) {
	designs := map[string]func() (*extract.Parasitics, error){
		"parallel wires": func() (*extract.Parasitics, error) {
			d, err := dsp.ParallelWires(3, 500, 1.2, []string{"INV_X2"}, "NAND2_X1")
			if err != nil {
				return nil, err
			}
			return extract.Extract(d, extract.Tech025())
		},
		"synthetic dsp": func() (*extract.Parasitics, error) {
			d, err := dsp.Generate(dsp.Config{Seed: 12, Channels: 1, TracksPerChannel: 25,
				ChannelLengthUM: 700, BusFraction: 0.1})
			if err != nil {
				return nil, err
			}
			return extract.Extract(d, extract.Tech025())
		},
	}
	for name, gen := range designs {
		t.Run(name, func(t *testing.T) {
			p, err := gen()
			if err != nil {
				t.Fatal(err)
			}
			var first bytes.Buffer
			if err := Write(&first, p); err != nil {
				t.Fatal(err)
			}
			f, err := Parse(bytes.NewReader(first.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var second bytes.Buffer
			if err := f.Write(&second); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				a := strings.Split(first.String(), "\n")
				b := strings.Split(second.String(), "\n")
				for i := 0; i < len(a) || i < len(b); i++ {
					var la, lb string
					if i < len(a) {
						la = a[i]
					}
					if i < len(b) {
						lb = b[i]
					}
					if la != lb {
						t.Fatalf("re-serialization differs at line %d:\n  wrote:   %q\n  rewrote: %q", i+1, la, lb)
					}
				}
				t.Fatal("re-serialization differs (length only)")
			}
			// The re-serialized text must itself parse to an identical file.
			f2, err := Parse(bytes.NewReader(second.Bytes()))
			if err != nil {
				t.Fatalf("re-serialized SPEF does not parse: %v", err)
			}
			if f2.Stats() != f.Stats() {
				t.Fatalf("stats drift across round trip: %+v vs %+v", f2.Stats(), f.Stats())
			}
		})
	}
}
