package xtverify

import (
	"errors"
	"strings"
	"testing"

	"xtverify/internal/cells"
	"xtverify/internal/design"
)

// upsizeDEF is a hand-written design whose buffer u1 drives net a and also
// receives net b, so one instance has pins on two nets. Net c is driven by
// the strongest inverter in the library.
const upsizeDEF = `VERSION 5.8 ;
DESIGN upsize ;
UNITS DISTANCE MICRONS 1000 ;

COMPONENTS 5 ;
- d0 INV_X1 + PLACED ( 0 0 ) N ;
- u1 BUF_X1 + PLACED ( 100000 0 ) N ;
- r2 INV_X1 + PLACED ( 200000 0 ) N ;
- s3 INV_X12 + PLACED ( 0 2000 ) N ;
- r4 INV_X1 + PLACED ( 200000 2000 ) N ;
END COMPONENTS

NETS 3 ;
- b ( d0 Z ) ( u1 A )
+ ROUTED METAL1 300 ( 0 0 ) ( 100000 0 )
;
- a ( u1 Z ) ( r2 A )
+ ROUTED METAL1 300 ( 100000 0 ) ( 200000 0 )
;
- c ( s3 Z ) ( r4 A )
+ ROUTED METAL1 300 ( 0 2000 ) ( 200000 2000 )
;
END NETS
END DESIGN
`

// instCells lists the cell of every pin of inst in d, net by net.
func instCells(d *design.Design, inst string) []string {
	var out []string
	for _, n := range d.Nets {
		for _, pins := range [][]design.Pin{n.Drivers, n.Receivers} {
			for _, p := range pins {
				if p.Inst == inst {
					out = append(out, n.Name+":"+p.Cell.Name)
				}
			}
		}
	}
	return out
}

// TestUpsizeDriverRecellsEveryPin: the repair moves every pin of the
// victim's first driver instance, on every net, and leaves the verifier it
// was called on untouched.
func TestUpsizeDriverRecellsEveryPin(t *testing.T) {
	cfg := Config{Model: FixedResistance}
	v, err := NewVerifierFromDEF(strings.NewReader(upsizeDEF), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		cell string
		want []string
	}{
		{"", []string{"b:BUF_X2", "a:BUF_X2"}},
		{"BUF_X8", []string{"b:BUF_X8", "a:BUF_X8"}},
	} {
		up, err := v.UpsizeDriver("a", tc.cell, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := instCells(up.des, "u1"); strings.Join(got, " ") != strings.Join(tc.want, " ") {
			t.Errorf("UpsizeDriver(a, %q) left u1 as %q, want %q", tc.cell, got, tc.want)
		}
		var sb strings.Builder
		if err := up.WriteDEF(&sb); err != nil {
			t.Errorf("repaired design does not serialize: %v", err)
		}
	}
	if got := instCells(v.des, "u1"); strings.Join(got, " ") != "b:BUF_X1 a:BUF_X1" {
		t.Errorf("UpsizeDriver changed the base design: u1 is %q", got)
	}
}

// TestUpsizeDriverErrors: an unknown victim, an unknown cell and a driver
// with no stronger cell of its kind are each refused.
func TestUpsizeDriverErrors(t *testing.T) {
	v, err := NewVerifierFromDEF(strings.NewReader(upsizeDEF), Config{Model: FixedResistance})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, victim, cell, want string
	}{
		{"unknown victim", "no/such/net", "", `unknown net "no/such/net"`},
		{"unknown cell", "a", "MYSTERY_X9", "unknown cell"},
		{"no stronger cell", "c", "", "no stronger INV than INV_X12"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := v.UpsizeDriver(tc.victim, tc.cell, Config{Model: FixedResistance})
			//xtlint:errcmp two of the three errors are untyped; the text names which check refused the call
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("UpsizeDriver(%q, %q) = %v, want an error containing %q", tc.victim, tc.cell, err, tc.want)
			}
		})
	}
	if _, err := v.UpsizeDriver("a", "MYSTERY_X9", Config{}); !errors.Is(err, cells.ErrUnknownCell) {
		t.Errorf("unknown cell error %v does not wrap cells.ErrUnknownCell", err)
	}
}

// TestUpsizeDriverLeavesBaseWindows: the repaired verifier's STA pass writes
// windows into its own copy of the design. The base verifier's windows, pins
// and report are the same after the repaired verifier is built and run.
func TestUpsizeDriverLeavesBaseWindows(t *testing.T) {
	cfg := Config{Model: FixedResistance, CapRatioThreshold: 0.03, UseTimingWindows: true}
	base := engineVerifier(t, cfg)
	rep, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	before := identityText(t, rep)
	windows := make([]design.Window, len(base.des.Nets))
	for i, n := range base.des.Nets {
		windows[i] = n.Window
	}
	victim := ""
	for _, viol := range rep.Violations {
		net, _ := base.des.NetByName(viol.Victim)
		if cells.NextStronger(net.Drivers[0].Cell) != nil {
			victim = viol.Victim
			break
		}
	}
	if victim == "" {
		t.Fatal("no repairable violation")
	}
	net, _ := base.des.NetByName(victim)
	drv := net.Drivers[0]
	pinsBefore := instCells(base.des, drv.Inst)

	up, err := base.UpsizeDriver(victim, "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := up.Run(); err != nil {
		t.Fatal(err)
	}
	moved := 0
	for i, n := range base.des.Nets {
		if n.Window != windows[i] {
			t.Fatalf("net %s: base window %+v became %+v", n.Name, windows[i], n.Window)
		}
		if up.des.Nets[i].Window != n.Window {
			moved++
		}
	}
	if moved == 0 {
		t.Error("the upsize moved no window; the check above proves nothing")
	}
	if got := instCells(base.des, drv.Inst); strings.Join(got, " ") != strings.Join(pinsBefore, " ") {
		t.Errorf("base pins of %s changed: %q, want %q", drv.Inst, got, pinsBefore)
	}
	again, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := identityText(t, again); got != before {
		t.Errorf("base report changed after the repaired verifier ran:\n--- before ---\n%s--- after ---\n%s", before, got)
	}
}
