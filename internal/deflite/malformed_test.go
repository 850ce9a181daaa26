package deflite

import (
	"bufio"
	"errors"
	"strconv"
	"strings"
	"testing"
)

const (
	malformedHeader = "VERSION 5.8 ;\nDESIGN d ;\nUNITS DISTANCE MICRONS 1000 ;\n"
	malformedComp   = "COMPONENTS 1 ;\n- u1 INV_X1 + PLACED ( 0 0 ) N ;\nEND COMPONENTS\n"
)

// malformedDEF lists malformed inputs with the line and message fragment
// of the *ParseError each must fail with. FuzzDEF seeds its corpus from it.
var malformedDEF = []struct {
	name     string
	src      string
	wantLine int
	wantMsg  string
	// wantNumCause requires a *strconv.NumError in the cause chain;
	// wantCause, when set, must match errors.Is through Unwrap.
	wantNumCause bool
	wantCause    error
}{
	{
		name:     "truncated component",
		src:      malformedHeader + "COMPONENTS 1 ;\n- u1 INV_X1 + PLACED ( 0\n",
		wantLine: 5,
		wantMsg:  "malformed component",
	},
	{
		name:     "bad placement coordinate",
		src:      malformedHeader + "COMPONENTS 1 ;\n- u1 INV_X1 + PLACED ( zero 0 ) N ;\n",
		wantLine: 5,
		wantMsg:  "bad placement",
	},
	{
		name:     "unknown cell",
		src:      malformedHeader + "COMPONENTS 1 ;\n- u1 NOT_IN_LIBRARY + PLACED ( 0 0 ) N ;\n",
		wantLine: 5,
		wantMsg:  `unknown cell "NOT_IN_LIBRARY"`,
	},
	{
		name:     "bad UNITS",
		src:      "VERSION 5.8 ;\nDESIGN d ;\nUNITS DISTANCE MICRONS minus ;\n",
		wantLine: 3,
		wantMsg:  "bad UNITS",
	},
	{
		name:     "truncated pin group",
		src:      malformedHeader + malformedComp + "NETS 1 ;\n- n ( u1 Z\n",
		wantLine: 8,
		wantMsg:  "malformed pin group",
	},
	{
		name:     "pin on undeclared component",
		src:      malformedHeader + malformedComp + "NETS 1 ;\n- n ( ghost Z )\n",
		wantLine: 8,
		wantMsg:  `pin on undeclared component "ghost"`,
	},
	{
		name:     "route outside net",
		src:      malformedHeader + malformedComp + "NETS 1 ;\n+ ROUTED METAL2 600 ( 0 0 ) ( 10 0 )\n",
		wantLine: 8,
		wantMsg:  "route outside net",
	},
	{
		name:     "bad layer",
		src:      malformedHeader + malformedComp + "NETS 1 ;\n- n ( u1 Z )\n+ ROUTED POLY7 600 ( 0 0 ) ( 10 0 )\n",
		wantLine: 9,
		wantMsg:  `bad layer "POLY7"`,
	},
	{
		name:     "truncated route",
		src:      malformedHeader + malformedComp + "NETS 1 ;\n- n ( u1 Z )\n+ ROUTED METAL2 600 ( 0 0 )\n",
		wantLine: 9,
		wantMsg:  "malformed route",
	},
	{
		name:         "bad route coordinate",
		src:          malformedHeader + malformedComp + "NETS 1 ;\n- n ( u1 Z )\n+ ROUTED METAL2 600 ( ten 0 ) ( 10 0 )\n",
		wantLine:     9,
		wantMsg:      `bad coordinate "ten"`,
		wantNumCause: true,
	},
	{
		name:      "NaN route coordinate",
		src:       malformedHeader + malformedComp + "NETS 1 ;\n- n ( u1 Z )\n+ ROUTED METAL2 600 ( NaN 0 ) ( 10 0 )\n",
		wantLine:  9,
		wantMsg:   `bad coordinate "NaN"`,
		wantCause: errNotFinite,
	},
	{
		name:      "infinite route coordinates",
		src:       malformedHeader + malformedComp + "NETS 1 ;\n- n ( u1 Z )\n+ ROUTED METAL2 600 ( 0 0 ) ( 0 0 )\nNEW METAL2 600 ( 0 -Inf ) ( 0 +infinity )\n",
		wantLine:  10,
		wantMsg:   `bad coordinate "-Inf"`,
		wantCause: errNotFinite,
	},
	{
		name:      "coordinate overflows under tiny UNITS",
		src:       "VERSION 5.8 ;\nDESIGN d ;\nUNITS DISTANCE MICRONS 1e-300 ;\n" + "NETS 1 ;\n- n\n+ ROUTED METAL2 1 ( 1e10 0 ) ( 0 0 )\n",
		wantLine:  6,
		wantMsg:   `bad coordinate "1e10"`,
		wantCause: errNotFinite,
	},
	{
		name:      "route coordinate beyond bound",
		src:       malformedHeader + malformedComp + "NETS 1 ;\n- n ( u1 Z )\n+ ROUTED METAL2 600 ( 0 0 ) ( 120000000000000 0 )\n",
		wantLine:  9,
		wantMsg:   `bad coordinate "120000000000000"`,
		wantCause: errCoordRange,
	},
	{
		name:      "placement beyond bound",
		src:       malformedHeader + "COMPONENTS 1 ;\n- u1 INV_X1 + PLACED ( 0 -100000000001 ) N ;\n",
		wantLine:  5,
		wantMsg:   "bad placement",
		wantCause: errCoordRange,
	},
	{
		name:     "layer beyond 32 bits",
		src:      malformedHeader + malformedComp + "NETS 1 ;\n- n ( u1 Z )\n+ ROUTED METAL4294967298 600 ( 0 0 ) ( 10 0 )\n",
		wantLine: 9,
		wantMsg:  `bad layer "METAL4294967298"`,
	},
	{
		name:     "NaN placement",
		src:      malformedHeader + "COMPONENTS 1 ;\n- u1 INV_X1 + PLACED ( 0 NaN ) N ;\n",
		wantLine: 5,
		wantMsg:  "bad placement",
	},
	{
		name:     "NaN width",
		src:      malformedHeader + malformedComp + "NETS 1 ;\n- n ( u1 Z )\n+ ROUTED METAL2 NaN ( 0 0 ) ( 10 0 )\n",
		wantLine: 9,
		wantMsg:  "bad width",
	},
	{
		name:     "NaN UNITS",
		src:      "VERSION 5.8 ;\nDESIGN d ;\nUNITS DISTANCE MICRONS NaN ;\n",
		wantLine: 3,
		wantMsg:  "bad UNITS",
	},
	{
		name:     "infinite UNITS",
		src:      "VERSION 5.8 ;\nDESIGN d ;\nUNITS DISTANCE MICRONS Inf ;\n",
		wantLine: 3,
		wantMsg:  "bad UNITS",
	},
	{
		name:      "line over 1 MiB",
		src:       malformedHeader + malformedComp + "NETS 1 ;\n- n ( u1 Z )\n# " + strings.Repeat("x", 1<<20) + "\n",
		wantLine:  9,
		wantMsg:   "unreadable line",
		wantCause: bufio.ErrTooLong,
	},
	{
		name:     "duplicate net name",
		src:      malformedHeader + malformedComp + "NETS 2 ;\n- n ( u1 Z )\n;\n- n ( u1 Z )\n;\nEND NETS\n",
		wantLine: 10,
		wantMsg:  `duplicate net name "n"`,
	},
	{
		name:     "USE outside net",
		src:      malformedHeader + malformedComp + "NETS 1 ;\n+ USE CLOCK\n",
		wantLine: 8,
		wantMsg:  "USE outside net",
	},
	{
		name:     "unexpected statement",
		src:      malformedHeader + "GARBAGE HERE\n",
		wantLine: 4,
		wantMsg:  "unexpected",
	},
	{
		name:    "missing DESIGN",
		src:     "VERSION 5.8 ;\n",
		wantMsg: "no DESIGN statement",
	},
}

// TestMalformedDEFTypedErrors drives Read with malformed inputs and asserts
// that every failure is a *ParseError carrying the right line number and
// message fragment — the contract downstream tooling uses to point users at
// the offending line.
func TestMalformedDEFTypedErrors(t *testing.T) {
	for _, tc := range malformedDEF {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Read(strings.NewReader(tc.src))
			if err == nil {
				t.Fatal("malformed input accepted")
			}
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error %T (%v) is not a *ParseError", err, err)
			}
			if pe.Line != tc.wantLine {
				t.Errorf("line = %d, want %d (err: %v)", pe.Line, tc.wantLine, pe)
			}
			if !strings.Contains(pe.Msg, tc.wantMsg) {
				t.Errorf("msg %q does not contain %q", pe.Msg, tc.wantMsg)
			}
			if tc.wantCause != nil && !errors.Is(err, tc.wantCause) {
				t.Errorf("cause chain of %v lacks %v", err, tc.wantCause)
			}
			if tc.wantNumCause {
				var ne *strconv.NumError
				if !errors.As(err, &ne) {
					t.Errorf("cause chain of %v lacks the strconv error", err)
				}
			}
			//xtlint:errcmp the test pins the rendered line number in the human-facing message
			if tc.wantLine > 0 && !strings.Contains(err.Error(), "line "+strconv.Itoa(tc.wantLine)) {
				t.Errorf("rendered error %q omits the line number", err)
			}
		})
	}
}
