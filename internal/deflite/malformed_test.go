package deflite

import (
	"errors"
	"strconv"
	"strings"
	"testing"
)

// TestMalformedDEFTypedErrors drives Read with malformed inputs and asserts
// that every failure is a *ParseError carrying the right line number and
// message fragment — the contract downstream tooling uses to point users at
// the offending line.
func TestMalformedDEFTypedErrors(t *testing.T) {
	const header = "VERSION 5.8 ;\nDESIGN d ;\nUNITS DISTANCE MICRONS 1000 ;\n"
	const comp = "COMPONENTS 1 ;\n- u1 INV_X1 + PLACED ( 0 0 ) N ;\nEND COMPONENTS\n"

	cases := []struct {
		name     string
		src      string
		wantLine int
		wantMsg  string
		// wantCause, when set, must match errors.Is/As through Unwrap.
		wantNumCause bool
	}{
		{
			name:     "truncated component",
			src:      header + "COMPONENTS 1 ;\n- u1 INV_X1 + PLACED ( 0\n",
			wantLine: 5,
			wantMsg:  "malformed component",
		},
		{
			name:     "bad placement coordinate",
			src:      header + "COMPONENTS 1 ;\n- u1 INV_X1 + PLACED ( zero 0 ) N ;\n",
			wantLine: 5,
			wantMsg:  "bad placement",
		},
		{
			name:     "unknown cell",
			src:      header + "COMPONENTS 1 ;\n- u1 NOT_IN_LIBRARY + PLACED ( 0 0 ) N ;\n",
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
			src:      header + comp + "NETS 1 ;\n- n ( u1 Z\n",
			wantLine: 8,
			wantMsg:  "malformed pin group",
		},
		{
			name:     "pin on undeclared component",
			src:      header + comp + "NETS 1 ;\n- n ( ghost Z )\n",
			wantLine: 8,
			wantMsg:  `pin on undeclared component "ghost"`,
		},
		{
			name:     "route outside net",
			src:      header + comp + "NETS 1 ;\n+ ROUTED METAL2 600 ( 0 0 ) ( 10 0 )\n",
			wantLine: 8,
			wantMsg:  "route outside net",
		},
		{
			name:     "bad layer",
			src:      header + comp + "NETS 1 ;\n- n ( u1 Z )\n+ ROUTED POLY7 600 ( 0 0 ) ( 10 0 )\n",
			wantLine: 9,
			wantMsg:  `bad layer "POLY7"`,
		},
		{
			name:     "truncated route",
			src:      header + comp + "NETS 1 ;\n- n ( u1 Z )\n+ ROUTED METAL2 600 ( 0 0 )\n",
			wantLine: 9,
			wantMsg:  "malformed route",
		},
		{
			name:         "bad route coordinate",
			src:          header + comp + "NETS 1 ;\n- n ( u1 Z )\n+ ROUTED METAL2 600 ( ten 0 ) ( 10 0 )\n",
			wantLine:     9,
			wantMsg:      `bad coordinate "ten"`,
			wantNumCause: true,
		},
		{
			name:     "duplicate net name",
			src:      header + comp + "NETS 2 ;\n- n ( u1 Z )\n;\n- n ( u1 Z )\n;\nEND NETS\n",
			wantLine: 10,
			wantMsg:  `duplicate net name "n"`,
		},
		{
			name:     "USE outside net",
			src:      header + comp + "NETS 1 ;\n+ USE CLOCK\n",
			wantLine: 8,
			wantMsg:  "USE outside net",
		},
		{
			name:     "unexpected statement",
			src:      header + "GARBAGE HERE\n",
			wantLine: 4,
			wantMsg:  "unexpected",
		},
		{
			name:    "missing DESIGN",
			src:     "VERSION 5.8 ;\n",
			wantMsg: "no DESIGN statement",
		},
	}
	for _, tc := range cases {
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
